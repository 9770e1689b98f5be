package main

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	// base holds the flag defaults, which the fig22-closure benchmark
	// workload runs (it sets only -parallel and -seed).
	base := flagValues{seconds: 4, maxQPS: 70000, points: 12, scale: 100,
		arrivals: "poisson", think: 100, drain: 2, sched: "calendar"}
	cases := []struct {
		label string
		mut   func(*flagValues)
		bad   string // substring of the error, "" if accepted
	}{
		{"defaults", func(v *flagValues) {}, ""},
		// The tail-policy benchmark workload's arguments.
		{"tail-policy", func(v *flagValues) { v.scale, v.points, v.seconds = 10, 4, 2 }, ""},
		{"mmpp", func(v *flagValues) { v.arrivals, v.points, v.drain = "mmpp", 1, 0 }, ""},
		{"diurnal", func(v *flagValues) { v.arrivals, v.points, v.drain = "diurnal", 3, 0.5 }, ""},
		{"closed", func(v *flagValues) { v.arrivals, v.users, v.think = "closed", 40, 0 }, ""},
		{"heap", func(v *flagValues) { v.sched = "heap" }, ""},
		{"scale-1", func(v *flagValues) { v.scale = 1 }, ""},
		{"composepost", func(v *flagValues) { v.graph = "composepost" }, ""},
		{"bogus-arrivals", func(v *flagValues) { v.arrivals = "bogus" }, "-arrivals bogus"},
		{"empty-arrivals", func(v *flagValues) { v.arrivals = "" }, "-arrivals"},
		{"capital-arrivals", func(v *flagValues) { v.arrivals = "Poisson" }, "-arrivals Poisson"},
		{"zero-points", func(v *flagValues) { v.points = 0 }, "-points 0"},
		{"negative-points", func(v *flagValues) { v.points = -3 }, "-points -3"},
		{"negative-drain", func(v *flagValues) { v.drain = -1 }, "-drain -1"},
		{"nan-drain", func(v *flagValues) { v.drain = math.NaN() }, "-drain NaN"},
		{"zero-seconds", func(v *flagValues) { v.seconds = 0 }, "-seconds 0"},
		{"negative-seconds", func(v *flagValues) { v.seconds = -1 }, "-seconds -1"},
		{"nan-seconds", func(v *flagValues) { v.seconds = math.NaN() }, "-seconds NaN"},
		{"inf-seconds", func(v *flagValues) { v.seconds = math.Inf(1) }, "-seconds +Inf"},
		{"negative-max", func(v *flagValues) { v.maxQPS = -100 }, "-max -100"},
		{"nan-max", func(v *flagValues) { v.maxQPS = math.NaN() }, "-max NaN"},
		{"inf-max", func(v *flagValues) { v.maxQPS = math.Inf(1) }, "-max +Inf"},
		{"fractional-scale", func(v *flagValues) { v.scale = 0.5 }, "-scale 0.5"},
		{"nan-scale", func(v *flagValues) { v.scale = math.NaN() }, "-scale NaN"},
		{"inf-scale", func(v *flagValues) { v.scale = math.Inf(1) }, "-scale +Inf"},
		{"negative-users", func(v *flagValues) { v.users = -5 }, "-users -5"},
		{"negative-think", func(v *flagValues) { v.think = -1 }, "-think -1"},
		{"bogus-sched", func(v *flagValues) { v.sched = "bogus" }, "-sched bogus"},
		{"unknown-graph", func(v *flagValues) { v.graph = "nope" }, "-graph nope"},
		{"missing-graph-file", func(v *flagValues) { v.graph = "no-such-file.json" }, "-graph no-such-file.json"},
	}
	for _, c := range cases {
		v := base
		c.mut(&v)
		_, spec, err := checkFlags(v)
		if c.bad == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.label, err)
			}
			if (v.graph == "") != (spec == nil) {
				t.Errorf("%s: -graph %q resolved to %v", c.label, v.graph, spec)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("%s: error %v, want one naming %q", c.label, err, c.bad)
		}
	}
}

// TestMain runs the command instead of the tests when SYSSIM_ARGS is
// set, so a test can re-execute this binary as syssim.
func TestMain(m *testing.M) {
	if args := os.Getenv("SYSSIM_ARGS"); args != "" {
		os.Args = append([]string{"syssim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSyssim runs syssim with the space-separated args.
func runSyssim(args string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SYSSIM_ARGS="+args)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestBadFlagExitsTwo runs the binary with each bad flag: it must exit
// 2 with the reason on stderr and print nothing on stdout.
func TestBadFlagExitsTwo(t *testing.T) {
	for _, c := range []struct{ args, reason string }{
		{"-tail -arrivals bogus", "-arrivals bogus"},
		{"-points 0", "-points 0"},
		{"-tail -drain -1", "-drain -1"},
		{"-parallel -3", "flag -parallel"},
		{"-seconds 0", "-seconds 0"},
		{"-tail -seconds NaN -points 1 -scale 1", "-seconds NaN"},
		{"-tail -max NaN -points 1 -scale 1", "-max NaN"},
		{"-max -100", "-max -100"},
		{"-tail -scale 0.5", "-scale 0.5"},
		{"-tail -arrivals closed -users -5", "-users -5"},
		{"-tail -think -1", "-think -1"},
		{"-tail -sched bogus", "-sched bogus"},
		{"-tail -graph nope", "-graph nope"},
		{"-composepost", "-composepost"},
		{"-tail -legacy", "-legacy"},
	} {
		stdout, stderr, err := runSyssim(c.args)
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("%s: exit = %v, want status 2", c.args, err)
		}
		if !strings.Contains(stderr, c.reason) || stdout != "" {
			t.Fatalf("%s: stdout %q, stderr %q: want only the rejection on stderr", c.args, stdout, stderr)
		}
	}
}

// TestTailLegacyGolden: the spec-driven default tail sweep, with every
// overload policy engaged, prints exactly what the retired hand-coded
// social-network dispatch printed (testdata/tail_legacy.txt, recorded
// from syssim -tail -legacy with the same arguments).
func TestTailLegacyGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tail_legacy.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, err := runSyssim("-tail -scale 2 -points 2 -seconds 0.3 -seed 7 -timeout 100 -retries 1 -hedge 50 -qcap 10000")
	if err != nil {
		t.Fatalf("syssim: %v: %s", err, stderr)
	}
	if got != string(want) {
		t.Fatalf("tail sweep diverged from the recorded hand-coded dispatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}
