package queuesim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim(1)
	var order []int
	s.At(5, func() { order = append(order, 2) })
	s.At(1, func() { order = append(order, 1) })
	s.At(9, func() { order = append(order, 3) })
	s.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	// The clock finishes at the horizon even though the heap drained at
	// t=9, so rate denominators are horizon-independent of queue state.
	if s.Now() != 100 {
		t.Fatalf("clock %v, want 100", s.Now())
	}
}

func TestEventTieBreakFIFO(t *testing.T) {
	s := NewSim(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(3, func() { order = append(order, i) })
	}
	s.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.At(50, func() { fired = true })
	s.Run(10)
	if fired {
		t.Fatal("event past the horizon fired")
	}
	if s.Now() != 10 {
		t.Fatalf("clock %v", s.Now())
	}
}

func TestStationSerialisesBeyondServers(t *testing.T) {
	s := NewSim(1)
	st := NewStation(s, "t", 2)
	var done []float64
	for i := 0; i < 4; i++ {
		st.Submit(10, func() { done = append(done, s.Now()) })
	}
	s.Run(1000)
	if len(done) != 4 {
		t.Fatalf("completed %d", len(done))
	}
	// 2 servers: first two at t=10, next two at t=20.
	if done[0] != 10 || done[1] != 10 || done[2] != 20 || done[3] != 20 {
		t.Fatalf("completion times %v", done)
	}
}

func TestStationUtilization(t *testing.T) {
	s := NewSim(1)
	st := NewStation(s, "t", 1)
	st.Submit(50, nil)
	s.Run(100)
	u := st.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization %v, want ~0.5", u)
	}
}

// TestUtilizationConsistentAcrossExitPaths is the regression test for
// the Sim.Run clock bug: a run whose heap drains before the horizon
// used to leave now at the last event's timestamp while a run stopped
// by a future event set now = until, so Utilization() divided the same
// busy time by different denominators depending on how the run ended.
func TestUtilizationConsistentAcrossExitPaths(t *testing.T) {
	// Exit path 1: the heap drains (only event at t=50).
	drained := NewSim(1)
	sd := NewStation(drained, "t", 1)
	sd.Submit(50, nil)
	drained.Run(200)
	if drained.Now() != 200 {
		t.Fatalf("drained run clock %v, want 200 (old behaviour: 50)", drained.Now())
	}

	// Exit path 2: stopped by an event beyond the horizon.
	stopped := NewSim(1)
	ss := NewStation(stopped, "t", 1)
	ss.Submit(50, nil)
	stopped.At(500, func() {})
	stopped.Run(200)
	if stopped.Now() != 200 {
		t.Fatalf("stopped run clock %v, want 200", stopped.Now())
	}

	ud, us := sd.Utilization(), ss.Utilization()
	if ud != us {
		t.Fatalf("utilization depends on exit path: drained %v vs stopped %v", ud, us)
	}
	if ud < 0.24 || ud > 0.26 {
		t.Fatalf("utilization %v, want 50/200 = 0.25", ud)
	}
}

// TestUtilizationSettlesBusyTail: a station still busy when the run
// stops must be credited for the busy time since its last state
// change.
func TestUtilizationSettlesBusyTail(t *testing.T) {
	s := NewSim(1)
	st := NewStation(s, "t", 1)
	st.Submit(100, nil) // completion at t=100 is beyond the horizon
	s.Run(50)
	if u := st.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization %v, want 1.0 (busy tail not settled)", u)
	}
	// Settlement must not double-count once the event loop resumes.
	s.Run(100)
	if u := st.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization after resume %v, want 1.0", u)
	}
}

// TestRunKeepsFutureEvents: stopping on a beyond-horizon event must not
// drop it — a later Run picks it up.
func TestRunKeepsFutureEvents(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.At(80, func() { fired = true })
	s.Run(50)
	if fired {
		t.Fatal("event fired before its time")
	}
	s.Run(100)
	if !fired {
		t.Fatal("future event was dropped by the earlier Run")
	}
}

// Property: every submitted work item completes exactly once.
func TestQuickStationConservation(t *testing.T) {
	f := func(demands []uint8, servers uint8) bool {
		s := NewSim(2)
		st := NewStation(s, "t", int(servers%8)+1)
		completed := 0
		for _, d := range demands {
			st.Submit(float64(d%50)+1, func() { completed++ })
		}
		s.Run(1e9)
		return completed == len(demands)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSystemConservationLowLoad(t *testing.T) {
	for _, mode := range []struct {
		rpu, split bool
	}{{false, false}, {true, false}, {true, true}} {
		cfg := DefaultConfig()
		cfg.QPS = 2000
		cfg.Seconds = 2
		cfg.RPU, cfg.Split = mode.rpu, mode.split
		m := Run(cfg)
		measured := cfg.Seconds - cfg.Warmup
		expected := cfg.QPS * measured
		got := float64(m.Completed)
		if got < expected*0.9 || got > expected*1.1 {
			t.Fatalf("mode %+v: completed %v of ~%v offered", mode, got, expected)
		}
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	low := DefaultConfig()
	low.QPS = 2000
	low.Seconds = 2
	high := low
	high.QPS = 15500
	ml, mh := Run(low), Run(high)
	if mh.Latency.Percentile(99) <= ml.Latency.Percentile(99) {
		t.Fatalf("p99 did not grow with load: %v vs %v",
			ml.Latency.Percentile(99), mh.Latency.Percentile(99))
	}
}

func TestCPUSaturatesNearPaperKnee(t *testing.T) {
	under := DefaultConfig()
	under.QPS = 13000
	under.Seconds = 2
	over := under
	over.QPS = 22000
	mu, mo := Run(under), Run(over)
	if mu.UserUtil > 0.99 {
		t.Fatalf("CPU saturated below 13 kQPS (util %.2f)", mu.UserUtil)
	}
	if mo.UserUtil < 0.99 {
		t.Fatalf("CPU not saturated at 22 kQPS (util %.2f)", mo.UserUtil)
	}
}

func TestRPUSplitSustainsHigherLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QPS = 45000
	cfg.Seconds = 2
	cfg.RPU, cfg.Split = true, true
	m := Run(cfg)
	if m.UserUtil > 0.99 {
		t.Fatalf("RPU w/ split saturated at 45 kQPS (util %.2f)", m.UserUtil)
	}
	measured := cfg.Seconds - cfg.Warmup
	if m.Throughput(measured) < 40000 {
		t.Fatalf("throughput %v at 45 kQPS", m.Throughput(measured))
	}
}

func TestNoSplitInflatesAverageNotTail(t *testing.T) {
	base := DefaultConfig()
	base.QPS = 20000
	base.Seconds = 2
	base.RPU = true

	split := base
	split.Split = true
	ms, mn := Run(split), Run(base)
	// Without splitting, hit requests wait for the storage round trip:
	// average latency inflates by most of the storage latency.
	if mn.Latency.Mean() < ms.Latency.Mean()+0.5*base.StorageLatency {
		t.Fatalf("no-split average %.2f not inflated vs split %.2f",
			mn.Latency.Mean(), ms.Latency.Mean())
	}
	// Tail stays within the same order (CPU tails include storage too).
	if mn.Latency.Percentile(99) > 3*ms.Latency.Percentile(99) {
		t.Fatalf("no-split tail blew up: %.2f vs %.2f",
			mn.Latency.Percentile(99), ms.Latency.Percentile(99))
	}
}

func TestBatchFormationFillsUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QPS = 40000
	cfg.Seconds = 2
	cfg.RPU, cfg.Split = true, true
	m := Run(cfg)
	if m.AvgBatchFill < 16 {
		t.Fatalf("average batch fill %.1f at high load", m.AvgBatchFill)
	}
	cfg.QPS = 2000
	m2 := Run(cfg)
	if m2.AvgBatchFill >= m.AvgBatchFill {
		t.Fatal("batch fill should shrink at low load (timeout flushes)")
	}
}

func TestSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seconds = 1.5
	ms := Sweep(cfg, []float64{2000, 8000})
	if len(ms) != 2 || ms[0].Offered != 2000 || ms[1].Offered != 8000 {
		t.Fatalf("sweep wrong: %+v", ms)
	}
}

func TestBatchTierPlacement(t *testing.T) {
	// §VI-H: logic-tier batching (default) must behave like web-tier
	// batching within noise, while acknowledging requests individually
	// (more web-tier submissions).
	base := DefaultConfig()
	base.QPS = 20000
	base.Seconds = 2
	base.RPU, base.Split = true, true

	webTier := base
	webTier.BatchAtWebTier = true
	ml, mw := Run(base), Run(webTier)
	if ml.Completed == 0 || mw.Completed == 0 {
		t.Fatal("no completions")
	}
	rl, rw := ml.Latency.Mean(), mw.Latency.Mean()
	if rl > rw*1.5 || rw > rl*1.5 {
		t.Fatalf("batch placement changed latency drastically: %v vs %v", rl, rw)
	}
}

// composePostTail is a compose-post load point on the tail engine at
// the given offered load, horizon and mode, with Config's defaults
// (1 s warmup, 2 s drain, seed 1) otherwise.
func composePostTail(qps, seconds float64, rpu bool) TailConfig {
	c := DefaultConfig()
	c.QPS, c.Seconds, c.RPU = qps, seconds, rpu
	return TailConfig{Config: c, Scale: 1, Graph: ComposePostGraph(DefaultComposePost())}
}

func TestComposePostConservation(t *testing.T) {
	for _, rpu := range []bool{false, true} {
		cfg := composePostTail(3000, 2, rpu)
		m := mustTail(t, cfg)
		measured := cfg.Seconds - cfg.Warmup
		want := cfg.QPS * measured
		if got := float64(m.Completed); got < want*0.9 || got > want*1.1 {
			t.Fatalf("rpu=%v: completed %v of ~%v", rpu, got, want)
		}
	}
}

func TestComposePostRPUHigherCapacity(t *testing.T) {
	// Offered load past the CPU orchestrator's knee: the RPU system
	// keeps up where the CPU saturates.
	cpu := mustTail(t, composePostTail(60000, 2, false))
	rpu := mustTail(t, composePostTail(60000, 2, true))
	if cpu.UserUtil < 0.99 {
		t.Fatalf("CPU orchestrator not saturated at 60 kQPS (util %.2f)", cpu.UserUtil)
	}
	if rpu.UserUtil > 0.99 {
		t.Fatalf("RPU orchestrator saturated at 60 kQPS (util %.2f)", rpu.UserUtil)
	}
	if rpu.Completed <= cpu.Completed {
		t.Fatal("RPU should complete more under overload")
	}
}

func TestComposePostFanoutJoins(t *testing.T) {
	m := mustTail(t, composePostTail(1000, 1.5, false))
	// No-load latency floor: web + orch + slowest leg (text 0.8) +
	// storage 1.0 + cache + hops ≈ 3.6 ms; the mean must sit near it.
	if mean := m.Latency.Mean(); mean < 2.5 || mean > 6 {
		t.Fatalf("compose-post unloaded mean %.2f ms outside plausible band", mean)
	}
}

func TestJitterBounds(t *testing.T) {
	s := NewSim(3)
	for i := 0; i < 1000; i++ {
		v := s.Jitter(10)
		if v < 8 || v > 12 {
			t.Fatalf("jitter %v outside ±20%%", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := NewSim(4)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += s.Exp(5)
	}
	if mean := sum / float64(n); mean < 4.5 || mean > 5.5 {
		t.Fatalf("exponential mean %v, want ~5", mean)
	}
}
