package main

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		arrivals string
		points   int
		drain    float64
		bad      string // substring of the error, "" if accepted
	}{
		{"poisson", 12, 2, ""},
		{"mmpp", 1, 0, ""},
		{"diurnal", 3, 0.5, ""},
		{"closed", 4, 2, ""},
		{"bogus", 12, 2, "-arrivals bogus"},
		{"", 12, 2, "-arrivals"},
		{"Poisson", 12, 2, "-arrivals Poisson"},
		{"poisson", 0, 2, "-points 0"},
		{"poisson", -3, 2, "-points -3"},
		{"poisson", 12, -1, "-drain -1"},
		{"poisson", 12, math.NaN(), "-drain NaN"},
	}
	for _, c := range cases {
		err := checkFlags(c.arrivals, c.points, c.drain)
		if c.bad == "" {
			if err != nil {
				t.Errorf("%+v rejected: %v", c, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("%+v: error %v, want one naming %q", c, err, c.bad)
		}
	}
}

// TestBadFlagExitsTwo runs the binary with each bad flag: it must exit
// 2 with the reason on stderr and print nothing on stdout.
func TestBadFlagExitsTwo(t *testing.T) {
	if args := os.Getenv("SYSSIM_ARGS"); args != "" {
		os.Args = append([]string{"syssim"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, reason string }{
		{"-tail -arrivals bogus", "-arrivals bogus"},
		{"-points 0", "-points 0"},
		{"-tail -drain -1", "-drain -1"},
		{"-parallel -3", "flag -parallel"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagExitsTwo$")
		cmd.Env = append(os.Environ(), "SYSSIM_ARGS="+c.args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("%s: exit = %v, want status 2", c.args, err)
		}
		if !strings.Contains(stderr.String(), c.reason) || stdout.Len() != 0 {
			t.Fatalf("%s: stdout %q, stderr %q: want only the rejection on stderr", c.args, stdout.String(), stderr.String())
		}
	}
}
