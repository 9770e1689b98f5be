package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		fig, table int
		bad        string // substring of the error, "" if accepted
	}{
		{0, 0, ""},
		{19, 0, ""},
		{15, 0, ""},
		{0, 7, ""},
		{99, 0, "-fig 99"},
		{11, 0, "-fig 11"},
		{0, 9, "-table 9"},
		{0, 3, "-table 3"},
	}
	for _, c := range cases {
		err := checkFlags(c.fig, c.table)
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

// TestBadFlagExitsTwo runs the binary with a bad selector and with bad
// environment flags: each must exit 2 with the reason on stderr and
// print nothing on stdout.
func TestBadFlagExitsTwo(t *testing.T) {
	if args := os.Getenv("CHIPSIM_ARGS"); args != "" {
		os.Args = append([]string{"chipsim"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, reason string }{
		{"-fig 99", "-fig 99"},
		{"-parallel -3", "flag -parallel"},
		{"-lookahead -2", "flag -lookahead"},
		{"-sample 4:x", "flag -sample"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagExitsTwo$")
		cmd.Env = append(os.Environ(), "CHIPSIM_ARGS="+c.args)
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
