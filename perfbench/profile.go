package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layerOf maps a simr package to the host layer its CPU time counts
// toward; uservices holds the programs isa interprets. Packages absent
// here (alloc, batch, stats, seedrng, ...) count toward their caller.
var layerOf = map[string]string{
	"isa": "isa", "uservices": "isa", "simt": "simt", "core": "core", "trace": "trace",
	"mem": "mem", "pipeline": "pipeline", "energy": "energy", "queuesim": "queuesim",
}

// gcFrames mark a sample as garbage-collector work wherever they sit in
// its stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain",
}

// sample is one CPU-profile stack (leaf first) and its time.
type sample struct {
	seconds float64
	stack   []string
}

// profileSamples runs `go tool pprof -traces` on a CPU profile.
func profileSamples(ctx context.Context, profile string) ([]sample, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	s := parseTraces(string(out))
	if len(s) == 0 {
		return nil, fmt.Errorf("%s has no samples", profile)
	}
	return s, nil
}

// parseTraces parses pprof's -traces text: blocks separated by
// "-----------+---" lines, the first line of each carrying the sample
// value and leaf frame, later lines the callers.
func parseTraces(text string) []sample {
	var out []sample
	var cur *sample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case strings.HasPrefix(sc.Text(), "-----------+"):
			cur = nil
		case len(f) == 0:
		case cur == nil:
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				continue // profile header lines
			}
			out = append(out, sample{seconds: d.Seconds(), stack: []string{f[1]}})
			cur = &out[len(out)-1]
		default:
			cur.stack = append(cur.stack, f[0])
		}
	}
	return out
}

// shares splits samples into per-layer shares that sum to 1:
// go.gc_share for GC work, <layer>.host_share for the innermost frame
// in a simr layer, and unattributed for the rest (scheduler, syscalls,
// runtime outside GC).
func shares(samples []sample) map[string]float64 {
	s := map[string]float64{"go.gc_share": 0, "unattributed": 0}
	for _, l := range hostLayers {
		s[l+".host_share"] = 0
	}
	total := 0.0
	for _, smp := range samples {
		total += smp.seconds
	}
	for _, smp := range samples {
		s[classify(smp.stack)] += smp.seconds / total
	}
	return s
}

// classify returns the share key one sample stack (leaf first) counts
// toward.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "go.gc_share"
			}
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "simr/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if l, ok := layerOf[pkg]; ok {
			return l + ".host_share"
		}
	}
	return "unattributed"
}

// within keeps the samples whose stack passes through fn.
func within(samples []sample, fn string) []sample {
	var out []sample
	for _, s := range samples {
		for _, f := range s.stack {
			if f == fn {
				out = append(out, s)
				break
			}
		}
	}
	return out
}
