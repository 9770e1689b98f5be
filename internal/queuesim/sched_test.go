package queuesim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"simr/internal/obs"
)

// equivBase is a small, fast tail scenario for heap-vs-calendar
// equivalence: enough load for queueing, hedges and retries, small
// enough that the full grid runs in seconds.
func equivBase() TailConfig {
	c := DefaultConfig()
	c.QPS = 3000
	c.Seconds = 0.3
	c.Warmup = 0.05
	c.Drain = 3
	return TailConfig{Config: c, Scale: 1}
}

// TestSchedulerEquivalence: the calendar queue + timer lanes must be a
// drop-in for the binary heap — byte-identical TailMetrics across all
// five bundled graphs × 4 seeds × {poisson,mmpp,closed} ×
// {no-policy, timeout+retry+hedge+qcap} × {cpu,rpu,rpu-split}.
func TestSchedulerEquivalence(t *testing.T) {
	arrivals := []struct {
		label string
		ac    ArrivalConfig
	}{
		{"poisson", ArrivalConfig{Process: ArrPoisson}},
		{"mmpp", ArrivalConfig{Process: ArrMMPP}},
		{"closed", ArrivalConfig{Process: ArrClosed, Users: 150, ThinkMs: 10}},
	}
	policies := []struct {
		label string
		pc    PolicyConfig
	}{
		{"nopol", PolicyConfig{}},
		{"fullpol", PolicyConfig{TimeoutMs: 20, MaxRetries: 2, BackoffMs: 1,
			HedgeMs: 10, QueueCap: 400}},
	}
	modes := []struct {
		label string
		mut   func(*TailConfig)
	}{
		{"cpu", func(c *TailConfig) {}},
		{"rpu", func(c *TailConfig) { c.RPU = true }},
		{"rpu-split", func(c *TailConfig) { c.RPU = true; c.Split = true }},
	}
	for _, gname := range GraphNames() {
		for seed := int64(1); seed <= 4; seed++ {
			for _, arr := range arrivals {
				for _, pol := range policies {
					for _, mode := range modes {
						label := fmt.Sprintf("%s/seed%d/%s/%s/%s",
							gname, seed, arr.label, pol.label, mode.label)
						mk := func(sched Scheduler) *TailMetrics {
							cfg := equivBase()
							cfg.Seed = seed
							cfg.Arrivals = arr.ac
							cfg.Policy = pol.pc
							mode.mut(&cfg)
							g, err := GraphByName(gname, cfg.Config)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							cfg.Graph = g
							cfg.Scheduler = sched
							return mustTail(t, cfg)
						}
						heap, cal := mk(SchedHeap), mk(SchedCalendar)
						if !reflect.DeepEqual(heap, cal) {
							t.Fatalf("%s: schedulers diverged:\nheap     %+v\ncalendar %+v",
								label, heap, cal)
						}
					}
				}
			}
		}
	}
}

// orderRun floods a Sim with heavily colliding timestamps — including
// same-time chains scheduled from inside the handler and timers armed
// mid-run — and records the dispatch order. Heap and calendar must
// produce the identical sequence: ties break on arming seq, nothing
// else.
func orderRun(sched Scheduler) (order []int64, events uint64) {
	s := NewSimSched(1, sched)
	var chained int32
	s.Handle = func(kind uint8, a, b int32) {
		order = append(order, int64(kind)<<32|int64(a))
		if b > 0 {
			// Same-timestamp chain: reschedules at now with a fresh seq.
			chained++
			s.AtEvent(0, 2, 1_000_000+chained, b-1)
		}
	}
	rng := rand.New(rand.NewSource(42))
	times := []float64{0, 0.001, 0.001, 0.5, 0.5, 0.5, 0.5, 7, 7, 7}
	for i := 0; i < 5000; i++ {
		d := times[rng.Intn(len(times))]
		if i%10 == 0 {
			s.AtTimer(d, 3, int32(i), int32(rng.Intn(3))) // timer, never cancelled
		} else {
			s.AtEvent(d, 1, int32(i), int32(rng.Intn(3)))
		}
	}
	s.Run(100)
	return order, s.Events()
}

// TestCalendarHeapOrderProperty: the same-timestamp flood property
// test — dispatch order under massive (at) collisions is identical
// across schedulers.
func TestCalendarHeapOrderProperty(t *testing.T) {
	ho, he := orderRun(SchedHeap)
	co, ce := orderRun(SchedCalendar)
	if len(ho) == 0 {
		t.Fatal("order run dispatched nothing")
	}
	if !reflect.DeepEqual(ho, co) {
		for i := range ho {
			if i >= len(co) || ho[i] != co[i] {
				t.Fatalf("dispatch order diverged at %d: heap %d calendar %v (heap %d events, calendar %d)",
					i, ho[i], co[min(i, len(co)-1)], len(ho), len(co))
			}
		}
		t.Fatalf("dispatch order diverged in length: heap %d calendar %d", len(ho), len(co))
	}
	if he != ce {
		t.Fatalf("event counts diverged with no cancellations: heap %d calendar %d", he, ce)
	}
}

// laneRun drives AtTimer timers over len(delays) fixed delays,
// interleaved with ordinary calendar events: four arming rounds of 40
// timers per delay (so a lane's ring grows past laneMinCap), timers
// armed and cancelled from inside the handler mid-drain, and after
// every round a cancel at each delay's head, middle and tail. The heap
// twin runs the identical script; its cancelled timers still pop, so
// the handler screens them out the way the engine's generation checks
// do.
func laneRun(sched Scheduler, delays []float64) (order []int64, s *Sim, stale int) {
	s = NewSimSched(3, sched)
	rng := rand.New(rand.NewSource(11))
	var ids []TimerID
	var delayOf []int
	done := make(map[int32]bool) // fired or cancelled
	cancelled := make(map[int32]bool)
	arm := func(di int) {
		delayOf = append(delayOf, di)
		ids = append(ids, s.AtTimer(delays[di], 1, int32(len(ids)), 0))
	}
	queued := func(di int) []int32 {
		var q []int32
		for i, d := range delayOf {
			if d == di && !done[int32(i)] {
				q = append(q, int32(i))
			}
		}
		return q
	}
	cancel := func(i int32) {
		s.Cancel(ids[i])
		done[i], cancelled[i] = true, true
	}
	s.Handle = func(kind uint8, a, b int32) {
		if kind == 1 {
			if cancelled[a] {
				stale++
				return
			}
			done[a] = true
		}
		order = append(order, int64(kind)<<32|int64(a))
		if len(order)%5 == 0 && len(order) < 2000 {
			arm(len(order) % len(delays))
		}
		if len(order)%11 == 0 {
			if q := queued(len(order) % len(delays)); len(q) > 0 {
				cancel(q[0])
			}
		}
	}
	for round := 0; round < 4; round++ {
		for rep := 0; rep < 40; rep++ {
			for di := range delays {
				arm(di)
			}
			s.AtEvent(rng.Float64()*120, 2, int32(round*40+rep), 0)
		}
		for di := range delays {
			if q := queued(di); len(q) >= 3 {
				cancel(q[0])
				cancel(q[len(q)/2])
				cancel(q[len(q)-1])
			}
		}
		s.Run(float64(round+1) * 17)
	}
	s.Run(1e6)
	return order, s, stale
}

// TestTimerLanes: lane timers dispatch in exact (at, seq) order merged
// with the calendar, through ring growth, mid-drain arming and cancels
// at a lane's head, middle and tail; the calendar never dispatches a
// cancelled lane timer. With more distinct delays than lanes, the
// overflow falls back to lazy calendar timers and keeps heap order.
func TestTimerLanes(t *testing.T) {
	check := func(t *testing.T, delays []float64) (cs *Sim, hstale, cstale int) {
		ho, hs, hstale := laneRun(SchedHeap, delays)
		co, cs, cstale := laneRun(SchedCalendar, delays)
		if !reflect.DeepEqual(ho, co) {
			t.Fatalf("surviving dispatch order diverged: heap %d entries, calendar %d", len(ho), len(co))
		}
		if hstale == 0 {
			t.Fatal("heap oracle saw no stale pops; cancellation script is inert")
		}
		if hs.CancelledTimers() != cs.CancelledTimers() {
			t.Fatalf("CancelledTimers diverged: heap %d calendar %d",
				hs.CancelledTimers(), cs.CancelledTimers())
		}
		// Both dispatch every surviving event; only their stale pops differ.
		if got, want := cs.Events(), hs.Events()-uint64(hstale)+uint64(cstale); got != want {
			t.Fatalf("calendar events %d, want heap events minus stale pops plus calendar stale pops %d", got, want)
		}
		if hs.Pending() != 0 || cs.Pending() != 0 || cs.tl.live != 0 {
			t.Fatalf("pending after full drain: heap %d calendar %d (lanes %d)", hs.Pending(), cs.Pending(), cs.tl.live)
		}
		return cs, hstale, cstale
	}
	t.Run("lanes", func(t *testing.T) {
		delays := []float64{0.06, 2.5, 25, 50, 100}
		cs, _, cstale := check(t, delays)
		if cstale != 0 {
			t.Fatalf("calendar dispatched %d cancelled timers; cancellation must be physical", cstale)
		}
		if len(cs.tl.lanes) != len(delays) || cs.tl.lazy != 0 {
			t.Fatalf("%d lanes, %d lazy fallbacks; want %d lanes and none", len(cs.tl.lanes), cs.tl.lazy, len(delays))
		}
		if cs.tl.ringHWM <= laneMinCap {
			t.Fatalf("ring high-water mark %d never grew past the initial capacity %d", cs.tl.ringHWM, laneMinCap)
		}
	})
	t.Run("lazy-fallback", func(t *testing.T) {
		delays := make([]float64, maxLanes+3)
		for i := range delays {
			delays[i] = 0.5 + 3*float64(i)
		}
		cs, hstale, cstale := check(t, delays)
		if len(cs.tl.lanes) != maxLanes || cs.tl.lazy == 0 {
			t.Fatalf("%d lanes, %d lazy fallbacks; want %d lanes and some fallbacks", len(cs.tl.lanes), cs.tl.lazy, maxLanes)
		}
		if cstale == 0 || cstale >= hstale {
			t.Fatalf("calendar stale pops %d (heap %d): want only the fallback timers' cancels to pop", cstale, hstale)
		}
	})
}

// TestSchedObsLaneCounters: the sched scope reports the timer lanes'
// bookkeeping. The engine's timers and hops share at most four
// constant delays, so nothing falls back to a lazy timer, every cancel
// is a physical deschedule, and after the drain every armed timer has
// either fired or been descheduled.
func TestSchedObsLaneCounters(t *testing.T) {
	cfg := tailBase()
	cfg.Seconds = 0.5
	cfg.QPS = 18000
	cfg.RPU = true
	cfg.Policy = PolicyConfig{TimeoutMs: 50, MaxRetries: 1, BackoffMs: 1, HedgeMs: 20}
	reg := obs.NewRegistry()
	cfg.Monitor = &Monitor{Reg: reg, Label: "t"}
	m := mustTail(t, cfg)
	sc := reg.Scope(ScopeName("t", "sched"))
	armed, fired := sc.Counter("lane_armed").Load(), sc.Counter("lane_fired").Load()
	desched := sc.Counter("lane_descheduled").Load()
	if armed == 0 || armed != fired+desched {
		t.Fatalf("lanes armed %d, fired %d, descheduled %d: want armed = fired + descheduled > 0", armed, fired, desched)
	}
	if desched != int64(m.CancelledTimers) || desched == 0 {
		t.Fatalf("lanes descheduled %d timers, engine cancelled %d: want equal and non-zero", desched, m.CancelledTimers)
	}
	if n := sc.Gauge("lanes").Load(); n != 4 {
		t.Fatalf("%d lanes, want 4 (timeout, hedge, batch timeout, network hop)", n)
	}
	if n := sc.Counter("lane_lazy_fallbacks").Load(); n != 0 {
		t.Fatalf("%d lazy fallbacks, want 0", n)
	}
	if sc.Gauge("lane_ring_hwm").Load() == 0 {
		t.Fatal("lane ring high-water mark not reported")
	}
}

// TestCancelledTimerSemantics: Pending() and Events() exclude
// physically descheduled timers under the calendar scheduler, while
// the heap oracle keeps them queued until their stale pop — the
// documented contract.
func TestCancelledTimerSemantics(t *testing.T) {
	for _, sched := range []Scheduler{SchedHeap, SchedCalendar} {
		s := NewSimSched(1, sched)
		fired := 0
		s.Handle = func(kind uint8, a, b int32) { fired++ }
		ids := make([]TimerID, 10)
		for i := range ids {
			ids[i] = s.AtTimer(float64(i+1), 1, int32(i), 0)
		}
		for i := 0; i < 4; i++ {
			s.Cancel(ids[i])
		}
		wantPending := 10
		if sched == SchedCalendar {
			wantPending = 6
		}
		if got := s.Pending(); got != wantPending {
			t.Fatalf("%v: Pending after 4 cancels = %d, want %d", sched, got, wantPending)
		}
		if got := s.CancelledTimers(); got != 4 {
			t.Fatalf("%v: CancelledTimers = %d, want 4", sched, got)
		}
		s.Run(100)
		wantEvents := uint64(10)
		if sched == SchedCalendar {
			wantEvents = 6
		}
		if got := s.Events(); got != wantEvents {
			t.Fatalf("%v: Events after drain = %d, want %d", sched, got, wantEvents)
		}
		if s.Pending() != 0 {
			t.Fatalf("%v: Pending after drain = %d", sched, s.Pending())
		}
	}
}

// TestCalendarResizeMidRun: interleaved pushes and pops drive the
// bucket array through grows and shrinks and the scan through the
// direct-min fallback, without ever disturbing the global (at, seq)
// dequeue order.
func TestCalendarResizeMidRun(t *testing.T) {
	q := &calQueue{}
	rng := rand.New(rand.NewSource(5))
	var seq uint64
	push := func(at float64) {
		seq++
		q.push(calEvent{at: at, seq: seq, kind: 1})
	}
	var lastAt float64 = -1
	var lastSeq uint64
	pop := func() {
		e := q.pop()
		if e.at < lastAt || (e.at == lastAt && e.seq < lastSeq) {
			t.Fatalf("order violated: (%.9f, %d) after (%.9f, %d)", e.at, e.seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = e.at, e.seq
	}
	// Phase 1: dense cluster forces grows well past the floor.
	for i := 0; i < 5000; i++ {
		push(rng.Float64() * 100)
	}
	grows := q.resizes
	if grows == 0 {
		t.Fatal("5000 pushes triggered no grow")
	}
	// Phase 2: drain most of it (shrinks), interleaving fresh pushes
	// with timestamps at and beyond the already-popped frontier.
	for i := 0; i < 4600; i++ {
		pop()
		if i%5 == 0 {
			push(lastAt + rng.Float64()*200)
		}
	}
	if q.resizes == grows {
		t.Fatal("drain triggered no shrink")
	}
	// Phase 3: drain fully and walk the bucket array back to the
	// floor, where pops cannot shrink (and so cannot recalibrate the
	// width) any further.
	for q.count > 0 {
		pop()
	}
	for len(q.buckets) > calMinBuckets {
		push(lastAt + 1)
		pop()
	}
	// Two stragglers a full rotation apart: after popping the first,
	// the scan must rotate through every window, miss, and fall back
	// to the direct minimum.
	base := lastAt + 1
	far := base + q.width*float64(len(q.buckets))*3
	push(base)
	push(far)
	pop()
	pop()
	if q.directScans == 0 {
		t.Fatal("far-future straggler never hit the direct-scan fallback")
	}
	if lastAt != far {
		t.Fatalf("last pop at %.3f, want the straggler at %.3f", lastAt, far)
	}
}

// TestSchedCalendarDeterminism: 4 seeds under the calendar scheduler,
// run sequentially and in parallel, must agree exactly — the calendar
// path shares no state across Sims.
func TestSchedCalendarDeterminism(t *testing.T) {
	mk := func() TailConfig {
		cfg := tailBase()
		cfg.QPS = 18000
		cfg.Arrivals = ArrivalConfig{Process: ArrMMPP}
		cfg.Policy = PolicyConfig{TimeoutMs: 50, MaxRetries: 1, BackoffMs: 1, HedgeMs: 20}
		cfg.Scheduler = SchedCalendar
		return cfg
	}
	seq := make([]*TailMetrics, 4)
	for i := range seq {
		cfg := mk()
		cfg.Seed = int64(i + 1)
		seq[i] = mustTail(t, cfg)
	}
	par := make([]*TailMetrics, 4)
	var wg sync.WaitGroup
	for i := range par {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := mk()
			cfg.Seed = int64(i + 1)
			par[i] = mustTail(t, cfg)
		}(i)
	}
	wg.Wait()
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("seed %d: parallel calendar run diverged from sequential:\nseq %+v\npar %+v",
				i+1, seq[i], par[i])
		}
	}
}

// TestCalendarSteadyStateAllocs: the calendar+lanes engine with every
// policy timer armed allocates nothing once warmed — the same 0
// allocs/op contract the heap engine carries.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	cfg := tailBase()
	cfg.Seconds = 2
	cfg.Warmup = 0
	cfg.QPS = 15000
	cfg.Policy = PolicyConfig{TimeoutMs: 50, MaxRetries: 1, BackoffMs: 1, HedgeMs: 25}
	cfg.Scheduler = SchedCalendar
	e, err := newTailEngine(cfg)
	if err != nil {
		t.Fatalf("newTailEngine: %v", err)
	}
	now := 200.0
	e.sim.Run(now) // grow arenas, buckets, lane rings to steady state
	n := testing.AllocsPerRun(100, func() {
		now += 5
		e.sim.Run(now)
	})
	if n != 0 {
		t.Fatalf("calendar steady-state event loop allocates %v allocs/op, want 0", n)
	}
}

// TestStationTypedDispatchAllocs: the migrated Station service path —
// typed evStation events into a pooled in-service arena — allocates
// nothing beyond whatever closure the caller hands Submit.
func TestStationTypedDispatchAllocs(t *testing.T) {
	for _, sched := range []Scheduler{SchedHeap, SchedCalendar} {
		s := NewSimSched(1, sched)
		st := NewStation(s, "svc", 4)
		done := func() {}
		for i := 0; i < 256; i++ { // warm queue, arena, scheduler
			st.Submit(s.Exp(1), done)
		}
		now := 500.0
		s.Run(now)
		n := testing.AllocsPerRun(200, func() {
			st.Submit(1, done)
			now += 3
			s.Run(now)
		})
		if n != 0 {
			t.Fatalf("%v: station typed dispatch allocates %v allocs/op, want 0", sched, n)
		}
	}
}
