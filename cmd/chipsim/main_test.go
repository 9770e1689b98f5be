package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		fig, table, parallel, lookahead int
		bad                             string // substring of the error, "" if accepted
	}{
		{0, 0, 0, -1, ""},
		{19, 0, 2, 0, ""},
		{15, 0, 1, 4, ""},
		{0, 7, 0, -1, ""},
		{99, 0, 0, -1, "-fig 99"},
		{11, 0, 0, -1, "-fig 11"},
		{0, 9, 0, -1, "-table 9"},
		{0, 3, 0, -1, "-table 3"},
		{0, 0, -1, -1, "-parallel -1"},
		{0, 0, 0, -2, "-lookahead -2"},
	}
	for _, c := range cases {
		err := checkFlags(c.fig, c.table, c.parallel, c.lookahead)
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

// TestBadFlagExitsTwo runs the binary with an unknown figure: it must
// exit 2 with the reason on stderr and print nothing on stdout.
func TestBadFlagExitsTwo(t *testing.T) {
	if os.Getenv("CHIPSIM_MAIN") == "1" {
		os.Args = []string{"chipsim", "-fig", "99"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagExitsTwo$")
	cmd.Env = append(os.Environ(), "CHIPSIM_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2", err)
	}
	if !strings.Contains(stderr.String(), "-fig 99") || stdout.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q: want only the rejection on stderr", stdout.String(), stderr.String())
	}
}
