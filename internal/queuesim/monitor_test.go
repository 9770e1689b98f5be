package queuesim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"simr/internal/obs"
)

// fingerprint renders every metric a study driver prints, so two runs
// that differ anywhere in the stats render differently.
func fingerprint(m *Metrics) string {
	return fmt.Sprintf("%d %.6f %.6f %.6f %.6f %d %.6f %d",
		m.Completed, m.Latency.Percentile(99), m.Latency.Percentile(50),
		m.Latency.Mean(), m.UserUtil, m.Batches, m.AvgBatchFill, m.SplitBatches)
}

// TestSeededDeterminism runs the closure social-network sim and the
// tail engine's compose-post graph twice per mode with the same seed
// and asserts identical stats: the schedulers break timestamp ties by
// submission sequence and dispatch closes over per-iteration work
// items, so a seed fully determines the run.
func TestSeededDeterminism(t *testing.T) {
	social := func() string {
		var out string
		for _, mode := range []struct{ rpu, split bool }{{false, false}, {true, false}, {true, true}} {
			cfg := DefaultConfig()
			cfg.QPS = 18000
			cfg.Seconds = 1.5
			cfg.Seed = 7
			cfg.RPU, cfg.Split = mode.rpu, mode.split
			out += fingerprint(Run(cfg)) + "\n"
		}
		return out
	}
	compose := func() string {
		var out string
		for _, rpu := range []bool{false, true} {
			cfg := composePostTail(5000, 1.5, rpu)
			cfg.Seed = 7
			out += tailFingerprint(mustTail(t, cfg)) + "\n"
		}
		return out
	}
	if a, b := social(), social(); a != b {
		t.Fatalf("social-network sim not deterministic:\n%s\nvs\n%s", a, b)
	}
	if a, b := compose(), compose(); a != b {
		t.Fatalf("compose-post sim not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestMonitorDoesNotPerturb: attaching a monitor must leave every
// reported metric bit-identical to the unmonitored run.
func TestMonitorDoesNotPerturb(t *testing.T) {
	run := func(mon *Monitor) string {
		cfg := DefaultConfig()
		cfg.QPS = 12000
		cfg.Seconds = 1.5
		cfg.RPU, cfg.Split = true, true
		cfg.Monitor = mon
		return fingerprint(Run(cfg))
	}
	plain := run(nil)
	mon := &Monitor{Reg: obs.NewRegistry(), Sink: obs.NewTraceSink(), Label: "t", MinDT: 1, Spans: true}
	monitored := run(mon)
	if plain != monitored {
		t.Fatalf("monitor perturbed the simulation:\n%s\nvs\n%s", plain, monitored)
	}
	if mon.Sink.Len() == 0 {
		t.Fatal("monitor recorded no trace events")
	}
	snap := mon.Reg.Snapshot()
	if len(snap.Scopes) == 0 {
		t.Fatal("monitor recorded no registry scopes")
	}
	// The bottleneck station must have seen every phase-1/phase-2 hop.
	found := false
	for _, sc := range snap.Scopes {
		if sc.Name == ScopeName("t", "user") {
			found = true
			h := sc.Histograms["sojourn_ms"]
			if h.Count == 0 {
				t.Fatal("user station sojourn histogram is empty")
			}
			if sc.Gauges["busy_hwm"] <= 0 || sc.Gauges["servers"] <= 0 {
				t.Fatalf("user station gauges not recorded: %+v", sc.Gauges)
			}
		}
	}
	if !found {
		t.Fatalf("scope %q missing; scopes: %+v", ScopeName("t", "user"), snap.Scopes)
	}
}

// TestMonitorTraceShape: the simulated-clock trace export is a valid
// Trace Event Format array (ph/ts/name) with counter samples.
func TestMonitorTraceShape(t *testing.T) {
	mon := &Monitor{Sink: obs.NewTraceSink(), Label: "cpu-qps4000", PID: 3, MinDT: 0.5}
	cfg := DefaultConfig()
	cfg.QPS = 4000
	cfg.Seconds = 1
	cfg.Monitor = mon
	Run(cfg)

	var buf bytes.Buffer
	if err := mon.Sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace not a JSON array: %v", err)
	}
	counters := 0
	for _, e := range evs {
		if _, ok := e["name"].(string); !ok {
			t.Fatalf("event missing name: %v", e)
		}
		ph, ok := e["ph"].(string)
		if !ok {
			t.Fatalf("event missing ph: %v", e)
		}
		if ph == "C" {
			counters++
			if _, ok := e["ts"].(float64); !ok {
				t.Fatalf("counter event missing ts: %v", e)
			}
			args, ok := e["args"].(map[string]any)
			if !ok {
				t.Fatalf("counter event missing args: %v", e)
			}
			for _, k := range []string{"busy", "queue"} {
				if _, ok := args[k]; !ok {
					t.Fatalf("counter args missing %q: %v", k, args)
				}
			}
		}
	}
	if counters == 0 {
		t.Fatal("no counter samples in trace")
	}
}

// TestMonitorDisabledAllocs: the probe hooks on the unmonitored path
// must be allocation-free.
func TestMonitorDisabledAllocs(t *testing.T) {
	s := NewSim(1)
	st := NewStation(s, "x", 1)
	if st.probe != nil {
		t.Fatal("station acquired a probe without a monitor")
	}
	n := testing.AllocsPerRun(200, func() {
		st.probe.sample(s.Now(), len(st.queue), st.busy)
		st.probe.observe(s.Now(), 1.5)
	})
	if n != 0 {
		t.Fatalf("disabled probe hooks allocate %v allocs/op, want 0", n)
	}
}
