package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixtures are the study CLIs' stdout at each workload's default
// seed, captured with the commands in workloads.go.
func fixture(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestParseChipFixture(t *testing.T) {
	f, err := parseChip(fixture(t, "chip-paper-42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// EXPERIMENTS.md's seed-42 headline ratios.
	want := fidelity{ReqJ: 4.10, Latency: 1.90, L1: 0.44, MemLat: 1.89}
	if f != want {
		t.Fatalf("ratios %+v, want %+v", f, want)
	}
	errs := f.errs()
	if got := errs[0]; math.Abs(got-math.Log(5.7/4.10)) > 1e-12 {
		t.Fatalf("paper_err_reqj %v", got)
	}
	if got := errs[3]; math.Abs(got-math.Log(1.89*1.33)) > 1e-12 {
		t.Fatalf("paper_err_memlat %v", got)
	}
}

func TestCheckTimingFixture(t *testing.T) {
	if err := checkTiming(fixture(t, "chip-timing-42.txt")); err != nil {
		t.Fatal(err)
	}
}

func TestParseTailFixture(t *testing.T) {
	tables, err := parseTail(fixture(t, "tail-policy-7.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The RPU modes complete nothing at 700 kQPS; such rows are valid.
	for _, m := range []string{"rpu-nosplit", "rpu-split"} {
		last := tables[m][tailPoints-1]
		if last[tailDone] != 0 || last[tailP999] != 0 {
			t.Fatalf("%s at 700 kQPS: %v, want a 0-done row", m, last)
		}
	}
}

func TestParseFig22Fixture(t *testing.T) {
	tables, err := parseFig22(fixture(t, "fig22-closure-1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tables["rpu-split"][0][f22P99]; got != 5.58 {
		t.Fatalf("rpu-split p99 at 5833 QPS = %v, want 5.58", got)
	}
}

// Each corruption of a fixture must break an output invariant and count
// as one failed run.
func TestCorruptedFixturesFail(t *testing.T) {
	cases := []struct {
		workload, fixture, old, new string
	}{
		{"chip-paper", "chip-paper-42.txt", "usertag                 3.57x", "usertag                 NaNx"},
		{"chip-paper", "chip-paper-42.txt", "mcrouter                1.58x      7.37x\n", ""},
		{"chip-paper", "chip-paper-42.txt", "Figure 21:", "Figure 22:"},
		{"chip-timing", "chip-timing-42.txt", "lanes32+vote+l3atomics        0.99x", "lanes32+vote+l3atomics        0.00x"},
		{"chip-timing", "chip-timing-42.txt", "lanes8                        1.14x        0.99x\n", ""},
		{"tail-policy", "tail-policy-7.txt", "50.77    78.34", "90.77    78.34"},
		{"tail-policy", "tail-policy-7.txt", "rpu-split:", "rpu-splat:"},
		{"fig22-closure", "fig22-closure-1.txt", "      5833       5890       5.58", "      5833       5890       -5.58"},
		{"fig22-closure", "fig22-closure-1.txt", "     70000      69688     347.36     225.62     1.00   32.0\n", ""},
	}
	for _, c := range cases {
		good := fixture(t, c.fixture)
		bad := strings.Replace(good, c.old, c.new, 1)
		if bad == good {
			t.Fatalf("%s: corruption %q not applied", c.fixture, c.old)
		}
		w, err := workloadByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.check(good); err != nil {
			t.Fatalf("%s: intact fixture fails: %v", c.fixture, err)
		}
		// A fresh run with no recorded digest: only the invariants can
		// reject the output.
		b := &bench{w: w, seed: 12345}
		_, err = b.verify(bad)
		b.attempt(c.workload, err)
		if b.attempted != 1 || b.failed != 1 {
			t.Fatalf("%s with %q → %q: attempted %d failed %d, want 1 and 1",
				c.fixture, c.old, c.new, b.attempted, b.failed)
		}
	}
}

// Outputs that differ within one run fail even without a recorded digest.
func TestDigestChangeWithinRunFails(t *testing.T) {
	w, _ := workloadByName("fig22-closure")
	b := &bench{w: w, seed: 12345}
	good := fixture(t, "fig22-closure-1.txt")
	if _, err := b.verify(good); err != nil {
		t.Fatal(err)
	}
	if _, err := b.verify(strings.Replace(good, "5.58", "5.59", 1)); err == nil {
		t.Fatal("changed output accepted")
	}
}

func loadDigests(t *testing.T) map[string]map[string]string {
	t.Helper()
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// Every workload records a digest for its default and held-out seed,
// and the fixtures are exactly the recorded default-seed outputs.
func TestDigestsRecorded(t *testing.T) {
	d := loadDigests(t)
	for _, w := range workloads {
		for _, s := range []int64{w.defaultSeed, w.heldOut} {
			if len(d[w.name][strconv.FormatInt(s, 10)]) != 64 {
				t.Errorf("%s: no digest for seed %d", w.name, s)
			}
		}
		sum := sha256.Sum256([]byte(fixture(t, w.name+"-"+strconv.FormatInt(w.defaultSeed, 10)+".txt")))
		if got := hex.EncodeToString(sum[:]); got != d[w.name][strconv.FormatInt(w.defaultSeed, 10)] {
			t.Errorf("%s: fixture digest %s differs from the recorded one", w.name, got)
		}
	}
}

func TestRecordedDigestMismatchFails(t *testing.T) {
	w, _ := workloadByName("fig22-closure")
	b := &bench{w: w, seed: 1, digests: map[string]string{"1": strings.Repeat("0", 64)}}
	if _, err := b.verify(fixture(t, "fig22-closure-1.txt")); err == nil {
		t.Fatal("digest mismatch passed")
	}
}

// The harness's metric lists are exactly BENCHMARK.json's, and every
// name and unit follows the grammar.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !metricName.MatchString(m.Name) || len(m.Name) > 64 || !unit.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, bad := range []string{"wall s", "cpu/s", "", "é"} {
		if metricName.MatchString(bad) {
			t.Errorf("grammar accepts %q", bad)
		}
	}
}

func TestBuildResultRejectsUnknownOrMissing(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.name] = 1
	}
	if _, err := buildResult(endToEnd, vals, 1, 0); err != nil {
		t.Fatal(err)
	}
	vals["extra"] = 1
	if _, err := buildResult(endToEnd, vals, 1, 0); err == nil {
		t.Fatal("extra metric accepted")
	}
	delete(vals, "extra")
	delete(vals, "wall_s")
	if _, err := buildResult(endToEnd, vals, 1, 0); err == nil {
		t.Fatal("missing metric accepted")
	}
}

func TestAttributeTraces(t *testing.T) {
	text := `File: chipsim
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             simr/internal/trace.(*BatchCache).clone
             simr/internal/core.runBatched.func2
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      40ms   simr/internal/alloc.(*Arena).Alloc
             simr/internal/uservices.(*Service).TraceInto
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.findRunnable
-----------+-------------------------------------------------------
`
	samples := parseTraces(text)
	if len(samples) != 4 || len(samples[0].stack) != 3 {
		t.Fatalf("parsed %+v", samples)
	}
	s := shares(samples)
	want := map[string]float64{"trace.host_share": 0.3, "go.gc_share": 0.1, "isa.host_share": 0.4, "unattributed": 0.2}
	sum := 0.0
	for k, v := range s {
		sum += v
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	if len(s) != len(hostLayers)+2 {
		t.Fatalf("%d share keys, want %d", len(s), len(hostLayers)+2)
	}
	if in := within(samples, "simr/internal/core.runBatched.func2"); len(in) != 1 || in[0].seconds != 0.03 {
		t.Fatalf("within: %+v", in)
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if m := median(v); m != 2.5 {
		t.Fatalf("median %v", m)
	}
	if q := tailQuantile(45); math.Abs(q-(1-10.0/45)) > 1e-12 {
		t.Fatalf("tail quantile of 45 = %v", q)
	}
	if q := tailQuantile(12); q != 0.5 {
		t.Fatalf("tail quantile of 12 = %v", q)
	}
}
