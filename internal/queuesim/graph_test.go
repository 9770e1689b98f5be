package queuesim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tailFingerprint renders every TailMetrics field, so two runs with
// equal fingerprints dispatched the same events in the same order with
// the same RNG draws.
func tailFingerprint(m *TailMetrics) string {
	return fmt.Sprintf("off=%v arr=%d done=%d fail=%d to=%d retry=%d hedge=%d hw=%d rej=%d hwm=%d ev=%d b=%d fill=%v split=%d util=%v meas=%v lat[n=%d mean=%v p50=%v p99=%v p999=%v]",
		m.Offered, m.Arrived, m.Completed, m.Failed, m.TimedOut, m.Retried,
		m.Hedged, m.HedgeWins, m.Rejected, m.InFlightHWM, m.Events, m.Batches,
		m.AvgBatchFill, m.SplitBatches, m.UserUtil, m.Measured,
		m.Latency.Len(), m.Latency.Mean(), m.Latency.Percentile(50),
		m.Latency.Percentile(99), m.Latency.Percentile(99.9))
}

// readLegacyFingerprints loads testdata/legacy_fingerprints.txt: the
// tailFingerprint of every TestSpecLegacyEquivalence cell as run by the
// retired hand-coded social-network dispatch, recorded before that
// dispatch was deleted. Each line is the cell key (seed, arrivals,
// policy, mode) followed by the fingerprint.
func readLegacyFingerprints(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_fingerprints.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.SplitN(line, " ", 5)
		if len(f) != 5 {
			t.Fatalf("malformed fingerprint line %q", line)
		}
		out[strings.Join(f[:4], " ")] = f[4]
	}
	return out
}

// TestSpecLegacyEquivalence: the generic executor walking the
// SocialGraph spec must be byte-identical to the retired hand-coded
// dispatch — same events, same RNG stream, same metrics to the last
// bit — across seeds, arrival processes, policy settings and execution
// modes, as recorded in testdata/legacy_fingerprints.txt.
func TestSpecLegacyEquivalence(t *testing.T) {
	want := readLegacyFingerprints(t)
	seeds := []int64{1, 7, 13, 42}
	if testing.Short() {
		seeds = seeds[:2]
	}
	arrivals := []ArrivalConfig{
		{Process: ArrPoisson},
		{Process: ArrMMPP},
		{Process: ArrClosed, Users: 1500, ThinkMs: 10},
	}
	policies := []PolicyConfig{
		{},
		{TimeoutMs: 20, MaxRetries: 2, BackoffMs: 0.5, HedgeMs: 10, QueueCap: 512},
	}
	modes := []struct {
		label      string
		rpu, split bool
	}{{"cpu", false, false}, {"rpu-nosplit", true, false}, {"rpu-split", true, true}}

	checked := 0
	for _, seed := range seeds {
		for _, arr := range arrivals {
			for pi, pol := range policies {
				for _, mode := range modes {
					key := fmt.Sprintf("seed=%d arrivals=%s policy=%d mode=%s", seed, arr.Process, pi, mode.label)
					w, ok := want[key]
					if !ok {
						t.Fatalf("%s: no recorded fingerprint", key)
					}
					c := DefaultConfig()
					c.QPS = 12000
					c.Seconds = 0.8
					c.Warmup = 0.2
					c.Drain = 5
					c.Seed = seed
					c.RPU = mode.rpu
					c.Split = mode.split
					got := tailFingerprint(mustTail(t, TailConfig{Config: c, Scale: 1, Arrivals: arr, Policy: pol}))
					if got != w {
						t.Fatalf("%s: spec diverged from the recorded hand-coded dispatch\nlegacy: %s\nspec:   %s", key, w, got)
					}
					checked++
				}
			}
		}
	}
	if !testing.Short() && checked != len(want) {
		t.Fatalf("checked %d cells, but %d are recorded", checked, len(want))
	}
}

// TestGraphValidatorErrors: malformed specs are rejected with errors
// naming the defect, never panics.
func TestGraphValidatorErrors(t *testing.T) {
	st := func(names ...string) []StationSpec {
		out := make([]StationSpec, len(names))
		for i, n := range names {
			out[i] = StationSpec{Name: n}
		}
		return out
	}
	stage := func(name string, next ...EdgeSpec) StageSpec {
		return StageSpec{Name: name, Station: "s", DemandMs: 1, Next: next}
	}
	for _, tc := range []struct {
		label string
		spec  GraphSpec
		want  string
	}{
		{"empty graph", GraphSpec{Name: "g"}, "empty graph"},
		{"no stations", GraphSpec{Name: "g", Entry: "a",
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "empty graph"},
		{"unknown entry", GraphSpec{Name: "g", Entry: "nope", Stations: st("s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "entry"},
		{"unknown station", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{{Name: "a", Station: "ghost", DemandMs: 1,
				Next: []EdgeSpec{{To: "done"}}}}}, "unknown station"},
		{"dangling edge", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "ghost"})}}, "unknown stage"},
		{"cycle", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				stage("a", EdgeSpec{To: "b"}),
				stage("b", EdgeSpec{To: "a"}),
			}}, "cycle"},
		{"bad probability", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Coins:  []CoinSpec{{Name: "c", Prob: 1.5}},
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "probability"},
		{"unknown coin", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{stage("a",
				EdgeSpec{To: "done", Coin: "ghost"}, EdgeSpec{To: "done"})}}, "unknown coin"},
		{"conditional final edge", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Coins:  []CoinSpec{{Name: "c", Prob: 0.5}},
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done", Coin: "c"})}}, "unconditional"},
		{"unreachable stage", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				stage("a", EdgeSpec{To: "done"}),
				stage("orphan", EdgeSpec{To: "done"}),
			}}, "unreachable"},
		{"join outside a leg", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "join"})}}, "join"},
		{"leg reaching done", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				{Name: "a", Station: "s", DemandMs: 1,
					Fanout: []EdgeSpec{{To: "leg"}},
					Next:   []EdgeSpec{{To: "done"}}},
				stage("leg", EdgeSpec{To: "done"}),
			}}, "fan-out leg"},
		{"nested fan-out", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				{Name: "a", Station: "s", DemandMs: 1,
					Fanout: []EdgeSpec{{To: "leg"}},
					Next:   []EdgeSpec{{To: "done"}}},
				{Name: "leg", Station: "s", DemandMs: 1,
					Fanout: []EdgeSpec{{To: "leg2"}},
					Next:   []EdgeSpec{{To: "join"}}},
				stage("leg2", EdgeSpec{To: "join"}),
			}}, "nested fan-out"},
		{"stage shared between main and leg", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				{Name: "a", Station: "s", DemandMs: 1,
					Fanout: []EdgeSpec{{To: "b"}},
					Next:   []EdgeSpec{{To: "b"}}},
				stage("b", EdgeSpec{To: "done"}),
			}}, "shared"},
		{"duplicate station", GraphSpec{Name: "g", Entry: "a", Stations: st("s", "s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "duplicate station"},
		{"duplicate stage", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{
				stage("a", EdgeSpec{To: "done"}),
				stage("a", EdgeSpec{To: "done"}),
			}}, "duplicate stage"},
		{"negative demand", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{{Name: "a", Station: "s", DemandMs: -1,
				Next: []EdgeSpec{{To: "done"}}}}}, "demand"},
		{"batch form_after unknown", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})},
			Batch: &BatchSpec{FormAfter: "ghost", Entry: "ba",
				Stages: []BatchStageSpec{{Name: "ba", Station: "s", DemandMs: 1,
					Next: []EdgeSpec{{To: "done"}}}}}}, "form_after"},
		{"batch diverge unknown coin", GraphSpec{Name: "g", Entry: "a", Stations: st("s", "b"),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})},
			Batch: &BatchSpec{FormAfter: "a", Entry: "ba",
				Stages: []BatchStageSpec{{Name: "ba", Station: "b", DemandMs: 1,
					Diverge: &DivergeSpec{Coin: "ghost",
						Hit:  EdgeSpec{To: "done"},
						Miss: EdgeSpec{To: "done"}}}}}}, "unknown coin"},
		{"batch station shared with pre-form stage", GraphSpec{Name: "g", Entry: "a",
			Stations: st("s"),
			Stages:   []StageSpec{stage("a", EdgeSpec{To: "done"})},
			Batch: &BatchSpec{FormAfter: "a", Entry: "ba",
				Stages: []BatchStageSpec{{Name: "ba", Station: "s", DemandMs: 1,
					Next: []EdgeSpec{{To: "done"}}}}}}, "serves batches"},
		{"too many coins", GraphSpec{Name: "g", Entry: "a", Stations: st("s"),
			Coins: func() []CoinSpec {
				out := make([]CoinSpec, 17)
				for i := range out {
					out[i] = CoinSpec{Name: fmt.Sprintf("c%d", i), Prob: 0.5}
				}
				return out
			}(),
			Stages: []StageSpec{stage("a", EdgeSpec{To: "done"})}}, "coins"},
	} {
		err := tc.spec.Validate()
		if err == nil {
			t.Fatalf("%s: validated clean, want error containing %q", tc.label, tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.label, err, tc.want)
		}
	}
}

// TestBuiltinGraphsValidate: every bundled spec validates and runs
// end-to-end in CPU and RPU modes with request conservation.
func TestBuiltinGraphsValidate(t *testing.T) {
	for _, name := range GraphNames() {
		spec, err := GraphByName(name, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rpu := range []bool{false, true} {
			c := DefaultConfig()
			c.QPS = 5000
			c.Seconds = 1
			c.Warmup = 0.25
			c.Drain = 5
			c.Seed = 7
			c.RPU = rpu
			c.Split = rpu
			m := mustTail(t, TailConfig{Config: c, Scale: 1, Graph: spec})
			label := fmt.Sprintf("%s/rpu=%v", name, rpu)
			checkConservation(t, m, label)
			if rpu && m.Batches == 0 {
				t.Fatalf("%s: RPU run formed no batches", label)
			}
		}
	}
	if _, err := GraphByName("nope", DefaultConfig()); err == nil {
		t.Fatal("unknown graph name resolved")
	}
}

// TestComposePostSpecMatchesClosure: the compose-post spec tracks the
// retired closure-based compose-post simulator within bands. The
// closure numbers were recorded at this configuration before it was
// deleted; here the two matched to the last bit, but in general they
// draw the RNG in a different order (the closure drew service jitter at
// submit time, the arena engine at serve time), so only bands hold.
func TestComposePostSpecMatchesClosure(t *testing.T) {
	for _, tc := range []struct {
		rpu              bool
		closureDone      float64 // completions per measured second
		closureP99Millis float64
	}{
		{false, 2998, 3.824233825920837},
		{true, 3086, 5.236275758574821},
	} {
		c := DefaultConfig()
		c.QPS = 3000
		c.Seconds = 2
		c.Warmup = 0.5
		c.Drain = 5
		c.RPU = tc.rpu
		m := mustTail(t, TailConfig{Config: c, Scale: 1, Graph: ComposePostGraph(DefaultComposePost())})

		lt, tt := tc.closureDone, m.Throughput()
		if tt < 0.9*lt || tt > 1.1*lt {
			t.Fatalf("rpu=%v: throughput diverged: closure %.0f/s spec %.0f/s", tc.rpu, lt, tt)
		}
		lp, tp := tc.closureP99Millis, m.Latency.Percentile(99)
		if tp < 0.7*lp || tp > 1.4*lp {
			t.Fatalf("rpu=%v: p99 diverged: closure %.2f ms spec %.2f ms", tc.rpu, lp, tp)
		}
	}
}

// TestGraphScenarios: the three new DSB scenarios behave like
// saturating queueing systems — RPU capacity moves the knee past CPU
// saturation at the calibrated loads.
func TestGraphScenarios(t *testing.T) {
	for _, name := range []string{"hotel", "media", "iot"} {
		spec, err := GraphByName(name, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run := func(qps float64, rpu bool) *TailMetrics {
			c := DefaultConfig()
			c.QPS = qps
			c.Seconds = 1
			c.Warmup = 0.25
			c.Drain = 5
			c.Seed = 7
			c.RPU = rpu
			c.Split = rpu
			return mustTail(t, TailConfig{Config: c, Scale: 1, Graph: spec})
		}
		// Low load: both systems keep up; these runs set the baseline
		// p99 for the saturation heuristic.
		low := 4000.0
		cpu, rpuM := run(low, false), run(low, true)
		for label, m := range map[string]*TailMetrics{"cpu": cpu, "rpu": rpuM} {
			if got := float64(m.Completed) / float64(m.Arrived); got < 0.95 {
				t.Fatalf("%s/%s at %.0f qps: completion %.3f < 0.95", name, label, low, got)
			}
		}
		if rpuM.Batches == 0 {
			t.Fatalf("%s: RPU run formed no batches", name)
		}
		// High load: CPU saturates where RPU still keeps up.
		high := 40000.0
		cpuHi, rpuHi := run(high, false), run(high, true)
		if !cpuHi.Saturated(cpu.Latency.Percentile(99)) {
			t.Fatalf("%s/cpu at %.0f qps: p99 %.2f ms (baseline %.2f) — expected CPU saturation",
				name, high, cpuHi.Latency.Percentile(99), cpu.Latency.Percentile(99))
		}
		if rpuHi.Saturated(rpuM.Latency.Percentile(99)) {
			t.Fatalf("%s/rpu at %.0f qps: p99 %.2f ms (baseline %.2f) — RPU should still keep up",
				name, high, rpuHi.Latency.Percentile(99), rpuM.Latency.Percentile(99))
		}
	}
}

// TestGraphJSONRoundTrip: a spec survives JSON marshal → LoadGraph and
// runs identically to the in-memory original.
func TestGraphJSONRoundTrip(t *testing.T) {
	spec := HotelGraph()
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hotel.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *GraphSpec) string {
		c := DefaultConfig()
		c.QPS = 6000
		c.Seconds = 1
		c.Warmup = 0.25
		c.Drain = 5
		c.Seed = 11
		c.RPU = true
		c.Split = true
		return tailFingerprint(mustTail(t, TailConfig{Config: c, Scale: 1, Graph: g}))
	}
	if a, b := run(spec), run(loaded); a != b {
		t.Fatalf("JSON round trip changed the run:\nmem:  %s\nfile: %s", a, b)
	}
	if _, err := LoadGraph(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("LoadGraph of a missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","entry":"a"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGraph(bad); err == nil {
		t.Fatal("LoadGraph of an invalid spec succeeded")
	}
}

// TestGraphDeterminism: spec-driven runs are bit-stable and concurrent
// engines (as a sweep driver runs them) do not interfere — run under
// -race in CI alongside the other determinism gates.
func TestGraphDeterminism(t *testing.T) {
	names := GraphNames()
	mk := func(i int) TailConfig {
		c := DefaultConfig()
		c.QPS = 8000
		c.Seconds = 0.6
		c.Warmup = 0.15
		c.Drain = 5
		c.Seed = int64(i + 3)
		c.RPU = i%2 == 1
		c.Split = c.RPU
		spec, err := GraphByName(names[i%len(names)], DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", names[i%len(names)], err)
		}
		return TailConfig{Config: c, Scale: 1, Graph: spec,
			Policy: PolicyConfig{TimeoutMs: 50, MaxRetries: 1, BackoffMs: 1, HedgeMs: 20}}
	}
	const n = 5
	seq := make([]string, n)
	for i := range seq {
		seq[i] = tailFingerprint(mustTail(t, mk(i)))
	}
	par := make([]string, n)
	var wg sync.WaitGroup
	for i := range par {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := RunTail(mk(i))
			if err != nil {
				par[i] = err.Error()
				return
			}
			par[i] = tailFingerprint(m)
		}(i)
	}
	wg.Wait()
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("graph %s: parallel run diverged:\nseq %s\npar %s", names[i%len(names)], seq[i], par[i])
		}
	}
}

// TestFanoutRejectionConservation: queue-cap rejections inside fan-out
// legs abandon the parent try without losing or double-counting the
// logical request — the rejectLeg/legEnd path under real load.
func TestFanoutRejectionConservation(t *testing.T) {
	c := DefaultConfig()
	c.QPS = 25000 // far past the compose-post CPU knee
	c.Seconds = 1
	c.Warmup = 0.25
	c.Drain = 5
	c.Seed = 7
	cfg := TailConfig{Config: c, Scale: 1, Graph: ComposePostGraph(DefaultComposePost()),
		Policy: PolicyConfig{TimeoutMs: 30, MaxRetries: 2, BackoffMs: 1, QueueCap: 50}}
	m := mustTail(t, cfg)
	if m.Rejected == 0 {
		t.Fatal("overloaded fan-out with QueueCap=50 rejected nothing")
	}
	checkConservation(t, m, "fanout-reject")
	// And with hedging layered on top.
	cfg.Policy.HedgeMs = 5
	m = mustTail(t, cfg)
	if m.Hedged == 0 {
		t.Fatal("no hedges under overload")
	}
	checkConservation(t, m, "fanout-reject-hedge")
}
