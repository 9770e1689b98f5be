package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadFlagExitsTwo runs the binary with an unknown figure and with a
// negative worker count: each must exit 2 with the reason on stderr and
// print nothing on stdout.
func TestBadFlagExitsTwo(t *testing.T) {
	if args := os.Getenv("SIMTEFF_ARGS"); args != "" {
		os.Args = append([]string{"simteff"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, reason string }{
		{"-fig 7", "-fig 7"},
		{"-parallel -3", "flag -parallel"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagExitsTwo$")
		cmd.Env = append(os.Environ(), "SIMTEFF_ARGS="+c.args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("%s: exit = %v, want status 2 (stderr %q)", c.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.reason) || stdout.Len() != 0 {
			t.Fatalf("%s: stdout %q, stderr %q: want only the rejection on stderr", c.args, stdout.String(), stderr.String())
		}
	}
}
