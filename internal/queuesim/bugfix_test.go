package queuesim

import (
	"math"
	"testing"
	"time"

	"simr/internal/stats"
)

// TestSaturatedCompletionCriterion: Saturated must implement its
// documented completion criterion — under 95 % of offered completed is
// saturation even when the surviving trickle has a healthy p99. Before
// the fix only the p99 heuristic ran, so a collapsed run whose few
// completions were fast reported as keeping up.
func TestSaturatedCompletionCriterion(t *testing.T) {
	mk := func(completed int) *Metrics {
		m := &Metrics{Offered: 1000, Measured: 1, Completed: completed,
			Latency: stats.NewSample(completed)}
		for i := 0; i < completed; i++ {
			m.Latency.Add(5) // fast: p99 well under 10x baseline
		}
		return m
	}
	if !mk(900).Saturated(2) {
		t.Fatal("90% completion with fast p99 must report saturated")
	}
	if mk(990).Saturated(2) {
		t.Fatal("99% completion with fast p99 must not report saturated")
	}
	if !mk(0).Saturated(2) {
		t.Fatal("zero completions must report saturated")
	}
}

// TestBatcherRearmsPerBatch: the formation timeout belongs to each
// batch, measured from its first element. Before the fix the timer
// armed for batch N kept running after a size-triggered flush and
// flushed batch N+1 early: with size 2 and timeout 10, elements at
// t=0,1 flush at t=1, and an element at t=2 must launch at t=12 — the
// stale timer fired it at t=10.
func TestBatcherRearmsPerBatch(t *testing.T) {
	sim := NewSim(1)
	var launches []float64
	b := &batcher[int]{sim: sim, size: 2, timeout: 10,
		launch: func([]int) { launches = append(launches, sim.Now()) }}
	sim.At(0, func() { b.add(1) })
	sim.At(1, func() { b.add(2) })
	sim.At(2, func() { b.add(3) })
	sim.Run(100)
	want := []float64{1, 12}
	if len(launches) != len(want) || launches[0] != want[0] || launches[1] != want[1] {
		t.Fatalf("launch times %v, want %v (stale formation timer fired early)", launches, want)
	}
}

// TestCensoringDrain: completions are attributed by arrival inside the
// measured window and collected through the drain horizon. Before the
// fix Run stopped dead at the arrival horizon, so any request still in
// flight — all of them, when the horizon is shorter than the service
// path — was silently dropped and saturated load points reported zero
// throughput.
func TestCensoringDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QPS = 1000
	cfg.Seconds = 0.01 // 10 ms of arrivals...
	cfg.Warmup = 0
	cfg.HitRate = 0         // every request takes the storage path
	cfg.StorageLatency = 50 // ...each needing >= 50 ms to finish
	cfg.Drain = 1
	m := Run(cfg)
	if m.Completed == 0 {
		t.Fatal("all completions censored at the arrival horizon")
	}
	if p := m.Latency.Percentile(50); p < 50 {
		t.Fatalf("median latency %.1f ms < 50 ms storage floor: wrong requests counted", p)
	}
	// And nothing arriving after the horizon may be counted: offered
	// load stops at Seconds, so completions cannot exceed arrivals.
	if m.Completed > int(cfg.QPS*cfg.Seconds*2) {
		t.Fatalf("%d completions from a ~%.0f-arrival window", m.Completed, cfg.QPS*cfg.Seconds)
	}
}

// TestRunZeroQPS: a non-positive rate means no arrivals, not a
// divide-by-zero arrival storm pinned to t=0.
func TestRunZeroQPS(t *testing.T) {
	for _, qps := range []float64{0, -5} {
		done := make(chan *Metrics, 1)
		go func() {
			cfg := DefaultConfig()
			cfg.QPS = qps
			cfg.Seconds = 1
			done <- Run(cfg)
		}()
		select {
		case m := <-done:
			if m.Completed != 0 {
				t.Fatalf("QPS=%v completed %d requests", qps, m.Completed)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("QPS=%v: Run hung (zero-delay arrival loop)", qps)
		}
	}
	cfg := DefaultTailConfig()
	cfg.QPS = 0
	cfg.Seconds = 1
	if _, err := RunTail(cfg); err == nil {
		t.Fatal("tail engine with QPS=0 must report a config error, not a silent empty run")
	}
}

// TestBackoffNoOverflow: the exponential backoff doubles in an integer
// shift; before the fix `1<<(tries-1)` in int overflowed for deep
// retry budgets (tries ≥ 64 gave zero or negative backoff — an
// immediate-retry storm with MaxRetries: 100). The exponent now
// saturates at 2^16 and MaxBackoffMs caps the wait outright.
func TestBackoffNoOverflow(t *testing.T) {
	cfg := tailBase()
	cfg.Policy = PolicyConfig{TimeoutMs: 10, MaxRetries: 100, BackoffMs: 1}
	e, err := newTailEngine(cfg)
	if err != nil {
		t.Fatalf("newTailEngine: %v", err)
	}
	// Jitter is ±20%, so any backoff is within [0.8, 1.2]·d.
	maxD := 1.2 * cfg.Policy.BackoffMs * float64(int64(1)<<backoffShiftCap)
	for _, tries := range []uint8{1, 2, 17, 64, 70, 100, 255} {
		d := e.backoff(tries)
		if d <= 0 {
			t.Fatalf("tries=%d: backoff %v ms; overflowed shift collapsed the wait", tries, d)
		}
		if d > maxD {
			t.Fatalf("tries=%d: backoff %v ms exceeds the 2^%d doubling cap %v", tries, d, backoffShiftCap, maxD)
		}
	}
	// Small exponents are bit-identical to the uncapped doubling.
	for _, tries := range []uint8{1, 2, 3, 10, 17} {
		want := cfg.Policy.BackoffMs * float64(int64(1)<<(tries-1))
		d := e.backoff(tries)
		if d < 0.8*want || d > 1.2*want {
			t.Fatalf("tries=%d: backoff %v ms outside jitter band of %v ms", tries, d, want)
		}
	}
	// An explicit ceiling binds before the doubling cap.
	e.pol.MaxBackoffMs = 5
	for _, tries := range []uint8{4, 100} {
		if d := e.backoff(tries); d > 1.2*5 {
			t.Fatalf("tries=%d: backoff %v ms ignores MaxBackoffMs=5", tries, d)
		}
	}
	// And the engine survives a deep-retry overload run: with the
	// overflow, retries re-issued instantly and the run exploded. The
	// explicit ceiling keeps the worst retry chain (100 tries × ~16 ms)
	// inside the drain horizon so conservation can close.
	cfg.QPS = 25000
	cfg.Seconds = 1
	cfg.Warmup = 0.25
	cfg.Policy.MaxBackoffMs = 5
	m := mustTail(t, cfg)
	checkConservation(t, m, "deep-retry")
	if m.Retried == 0 {
		t.Fatal("deep retry budget produced no retries")
	}
}

// TestArrivalDefaultsPreserveExplicitValues: withDefaults must
// distinguish unset (zero) from explicit degenerate values. Before the
// fix BurstMul: 1 was rewritten to 4 (a constant-rate MMPP was
// unexpressible) and DiurnalAmp could not express a flat shape.
func TestArrivalDefaultsPreserveExplicitValues(t *testing.T) {
	// Unset fields take the documented defaults.
	a := ArrivalConfig{}.withDefaults(1000)
	if a.BurstMul != DefaultBurstMul || a.BurstFrac != DefaultBurstFrac ||
		a.MeanBurstMs != DefaultMeanBurstMs || a.DiurnalAmp != DefaultDiurnalAmp ||
		a.ThinkMs != DefaultThinkMs || a.DiurnalPeriodMs != 1000 {
		t.Fatalf("zero config did not take defaults: %+v", a)
	}
	// Explicit degenerate MMPP: BurstMul 1 stays 1.
	a = ArrivalConfig{BurstMul: 1}.withDefaults(1000)
	if a.BurstMul != 1 {
		t.Fatalf("explicit BurstMul=1 rewritten to %v", a.BurstMul)
	}
	// Sub-unity multipliers (anti-bursts) survive too.
	a = ArrivalConfig{BurstMul: 0.5}.withDefaults(1000)
	if a.BurstMul != 0.5 {
		t.Fatalf("explicit BurstMul=0.5 rewritten to %v", a.BurstMul)
	}
	// Explicit flat diurnal shape via the sentinel.
	a = ArrivalConfig{DiurnalAmp: FlatDiurnal}.withDefaults(1000)
	if a.DiurnalAmp != 0 {
		t.Fatalf("FlatDiurnal resolved to amplitude %v, want 0", a.DiurnalAmp)
	}
	// And a flat diurnal run really is flat: it matches plain Poisson
	// arrival counts at the same seed (same thinning always accepts).
	cfg := tailBase()
	cfg.Seconds = 1
	cfg.Arrivals = ArrivalConfig{Process: ArrDiurnal, DiurnalAmp: FlatDiurnal}
	flat := mustTail(t, cfg)
	if flat.Arrived == 0 {
		t.Fatal("flat diurnal run saw no arrivals")
	}
	rate := float64(flat.Arrived) / flat.Measured
	if rate < 0.9*cfg.QPS || rate > 1.1*cfg.QPS {
		t.Fatalf("flat diurnal rate %.0f/s, want ~%.0f/s with zero amplitude", rate, cfg.QPS)
	}
	// A degenerate MMPP run behaves as constant-rate Poisson.
	cfg = tailBase()
	cfg.Seconds = 1
	cfg.Arrivals = ArrivalConfig{Process: ArrMMPP, BurstMul: 1}
	m := mustTail(t, cfg)
	rate = float64(m.Arrived) / m.Measured
	if rate < 0.9*cfg.QPS || rate > 1.1*cfg.QPS {
		t.Fatalf("degenerate MMPP rate %.0f/s, want ~%.0f/s", rate, cfg.QPS)
	}
}

// TestTailDegenerateConfigErrors: degenerate configurations are config
// errors, not silent empty runs reported as measured. Before the fix
// ArrClosed with Users: 0 "ran" to completion with zero arrivals.
func TestTailDegenerateConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		label string
		mut   func(*TailConfig)
	}{
		{"closed-zero-users", func(c *TailConfig) { c.Arrivals = ArrivalConfig{Process: ArrClosed} }},
		{"closed-negative-users", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrClosed, Users: -10}
		}},
		{"open-zero-qps", func(c *TailConfig) { c.QPS = 0 }},
		{"open-negative-qps", func(c *TailConfig) { c.QPS = -100 }},
		{"mmpp-zero-qps", func(c *TailConfig) { c.QPS = 0; c.Arrivals = ArrivalConfig{Process: ArrMMPP} }},
		{"diurnal-zero-qps", func(c *TailConfig) { c.QPS = 0; c.Arrivals = ArrivalConfig{Process: ArrDiurnal} }},
		{"zero-seconds", func(c *TailConfig) { c.Seconds = 0 }},
		// A NaN or infinite horizon or rate used to run until memory ran out.
		{"nan-seconds", func(c *TailConfig) { c.Seconds = math.NaN() }},
		{"inf-seconds", func(c *TailConfig) { c.Seconds = math.Inf(1) }},
		{"nan-qps", func(c *TailConfig) { c.QPS = math.NaN() }},
		{"inf-qps", func(c *TailConfig) { c.QPS = math.Inf(1) }},
		{"mmpp-nan-qps", func(c *TailConfig) { c.QPS = math.NaN(); c.Arrivals = ArrivalConfig{Process: ArrMMPP} }},
		// Negative or NaN windows and think times used to be clamped or
		// replaced by defaults silently.
		{"negative-warmup", func(c *TailConfig) { c.Warmup = -1 }},
		{"nan-warmup", func(c *TailConfig) { c.Warmup = math.NaN() }},
		{"negative-drain", func(c *TailConfig) { c.Drain = -1 }},
		{"nan-drain", func(c *TailConfig) { c.Drain = math.NaN() }},
		{"negative-think", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrClosed, Users: 100, ThinkMs: -1}
		}},
		{"nan-think", func(c *TailConfig) {
			c.Arrivals = ArrivalConfig{Process: ArrClosed, Users: 100, ThinkMs: math.NaN()}
		}},
		// Negative or NaN policy values used to disable the policy silently.
		{"negative-timeout", func(c *TailConfig) { c.Policy.TimeoutMs = -1 }},
		{"nan-timeout", func(c *TailConfig) { c.Policy.TimeoutMs = math.NaN() }},
		{"negative-hedge", func(c *TailConfig) { c.Policy.HedgeMs = -5 }},
		{"nan-hedge", func(c *TailConfig) { c.Policy.HedgeMs = math.NaN() }},
		{"negative-backoff", func(c *TailConfig) { c.Policy.BackoffMs = -1 }},
		{"nan-max-backoff", func(c *TailConfig) { c.Policy.MaxBackoffMs = math.NaN() }},
		{"negative-max-backoff", func(c *TailConfig) { c.Policy.MaxBackoffMs = -1 }},
		{"negative-qcap", func(c *TailConfig) { c.Policy.QueueCap = -1 }},
		{"negative-retries", func(c *TailConfig) { c.Policy.MaxRetries = -2 }},
	} {
		cfg := tailBase()
		tc.mut(&cfg)
		if _, err := RunTail(cfg); err == nil {
			t.Fatalf("%s: expected a config error", tc.label)
		}
	}
	// The closed loop with a real population still runs, and a zero
	// think time still means the default.
	cfg := tailBase()
	cfg.Seconds = 1
	cfg.Arrivals = ArrivalConfig{Process: ArrClosed, Users: 100}
	m := mustTail(t, cfg)
	if m.Arrived == 0 {
		t.Fatal("closed loop with Users=100 saw no arrivals")
	}
	cfg.Arrivals.ThinkMs = DefaultThinkMs
	if got, want := tailFingerprint(m), tailFingerprint(mustTail(t, cfg)); got != want {
		t.Fatalf("zero ThinkMs is not the default:\n%s\nvs\n%s", got, want)
	}
}

// TestUtilExcludesDrain: utilisation is measured over the arrival
// window only; a long drain after an overloaded run must not dilute
// it below saturation.
func TestUtilExcludesDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QPS = 40000 // far past the ~17.5 kQPS CPU knee
	cfg.Seconds = 2
	cfg.Warmup = 0.5
	cfg.Drain = 5
	m := Run(cfg)
	if m.UserUtil < 0.99 {
		t.Fatalf("overloaded user tier reports %.3f utilisation; drain leaked into the window", m.UserUtil)
	}
}
