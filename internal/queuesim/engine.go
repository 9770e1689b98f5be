// The tail-at-scale engine: a declarative service graph run as a
// pooled, allocation-free state machine instead of a closure graph, so
// data-center populations (10⁶+ in-flight requests) are cheap. The
// scenario comes from a compiled GraphSpec (graph.go) walked by the
// generic executor (exec.go), the engine's only request path; on the
// social-network spec it reproduces the retired hand-coded dispatch
// bit for bit (testdata/legacy_fingerprints.txt holds that dispatch's
// recorded metrics). Requests and batches live in index-addressed
// arenas, station queues are packed (index, generation) rings, and
// every hop is a typed event dispatched through the Sim's non-boxing
// scheduler — by default the O(1) calendar queue plus fixed-delay timer
// lanes (TailConfig.Scheduler selects the binary-heap oracle) — and
// steady-state event dispatch performs zero heap allocations.
// Cancellation (timeouts, hedge losers) is lazy: a cancelled entry is
// marked dead and collected by whatever holds it (its pending event, a
// queue slot, or its batch), and generation counters make stale
// timer/hedge/retry events no-ops, so nothing is ever searched or
// removed from the middle of a queue. Armed timers additionally carry
// a TimerID: when a slot is freed (or a batch launches early) the
// engine cancels them, which a timer lane turns into a physical O(1)
// deschedule while the heap oracle still pops them as stale no-ops —
// either way the logical cancellation count and every metric agree
// byte for byte. Every timer and spec-executor wire hop has a per-run
// constant delay (timeout, hedge, batch timeout, network hop), so the
// calendar scheduler keeps them in at most four FIFO lanes; jittered
// delays (service, arrivals, retry backoff) go through the calendar.
//
// Ownership discipline: at any instant each live request (and each
// batch) has exactly one *driver* — the pending event moving it, the
// station-queue slot holding it, the batch it joined, or (for a
// fanned-out request) its outstanding legs collectively. Only the
// driver frees the arena slot, and a slot's generation only advances
// on free, so auxiliary events (timeout/hedge/retry) can always detect
// staleness by comparing generations.
package queuesim

import (
	"fmt"
	"math"

	"simr/internal/stats"
)

// Typed event kinds (evFunc = 0 in sim.go is the closure kind).
const (
	ekArrival    uint8 = iota + 1 // next open-loop arrival; a = arrival generation
	ekFlip                        // MMPP state flip
	ekNet                         // request a enters stage b after the wire delay
	ekSvcDone                     // station b finished serving request a
	ekBatchNet                    // batch a enters batch stage b
	ekBatchDone                   // station b finished serving batch a
	ekBatchTimer                  // formation timeout for batch a armed at generation b
	ekTimeout                     // per-try timeout for request a at generation b
	ekRetry                       // backoff expired: re-issue request a at generation b
	ekHedge                       // hedge point for request a at generation b
	ekThink                       // closed-loop user a finished thinking
)

// Request flags.
const (
	rfDead  uint8 = 1 << iota // cancelled; the driver collects the slot
	rfHedge                   // this slot is the hedge copy
	rfLeg                     // fan-out leg: joins its parent, never completes
)

// ereq is one pooled request (or request copy: a retry or hedge, or a
// fan-out leg).
type ereq struct {
	arrive float64 // first arrival of the logical request (latency origin)
	enq    float64 // submission time at the current station
	gen    uint32  // advances on free; stale events compare against it
	user   int32   // closed-loop user index, -1 for open loop
	twin   int32   // hedge partner slot, -1 when none
	parent int32   // fan-out parent slot (sync legs), -1 otherwise
	pgen   uint32  // parent's generation when the leg was spawned
	joins  int32   // outstanding sync legs (fan-out parents)
	// hTimeout/hHedge are the armed per-try timeout and hedge timers,
	// cleared when they fire and cancelled when the slot is freed.
	hTimeout TimerID
	hHedge   TimerID
	coins    uint16 // per-request coin draws, one bit per declared coin
	stage    int8
	tries    uint8
	flags    uint8
}

// ebatch is one pooled RPU batch (or batch fan-out leg).
type ebatch struct {
	enq     float64
	members []int32
	gen     uint32
	parent  int32 // batch fan-out parent, -1 otherwise
	joins   int32 // outstanding sync batch legs
	// hTimer is the armed formation timer, cleared when it fires and
	// cancelled by a size-triggered launch.
	hTimer  TimerID
	stage   int8
	forming bool
}

// ring is a growable power-of-two circular FIFO of packed
// (index, generation) words — the station queues.
type ring struct {
	buf  []int64
	head int
	n    int
}

func pack(idx int32, gen uint32) int64 { return int64(idx)<<32 | int64(gen) }
func unpack(v int64) (int32, uint32)   { return int32(v >> 32), uint32(v) }

func (r *ring) push(v int64) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring) pop() int64 {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 64
	}
	nb := make([]int64, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

// estation is a multi-server FIFO station over the arenas. Unlike the
// closure-based Station it never allocates on the service path.
type estation struct {
	q          ring
	name       string
	idx        int32
	servers    int32
	busy       int32
	batched    bool // queue holds batch indices, not request indices
	busyTime   float64
	lastChange float64
	probe      *stationProbe
}

func (st *estation) account(now float64) {
	st.busyTime += float64(st.busy) * (now - st.lastChange)
	st.lastChange = now
}

// TailConfig parameterises one tail-at-scale load point. The embedded
// Config supplies the demands, cores, batch formation, hit rate, seed
// and horizon; Scale multiplies every station's capacity so a
// Scale=100 run is the 100x-machines analog. Batching is always at
// the graph's batch-formation point (the paper's §VI-H logic-tier
// placement for the bundled graphs); BatchAtWebTier is ignored here.
type TailConfig struct {
	Config
	// Scale multiplies station capacities (number of machines); < 1 is
	// treated as 1.
	Scale    float64
	Arrivals ArrivalConfig
	Policy   PolicyConfig
	// Graph selects the scenario; nil runs SocialGraph(cfg.Config),
	// the Figure 22 social-network analog.
	Graph *GraphSpec
	// Scheduler selects the pending-event container. The zero value is
	// SchedCalendar (calendar queue + timer lanes, the O(1) default);
	// SchedHeap keeps the binary heap as the byte-identity oracle.
	Scheduler Scheduler
}

// DefaultTailConfig returns the 100x Figure 22 analog: one hundred
// times the paper's machines offered one hundred times the paper's
// CPU-knee load (15 kQPS → 1.5 MQPS) under open Poisson arrivals.
func DefaultTailConfig() TailConfig {
	c := DefaultConfig()
	c.QPS = 1.5e6
	c.Seconds = 2
	c.Warmup = 0.5
	return TailConfig{Config: c, Scale: 100}
}

// TailMetrics is the outcome of one tail-at-scale load point.
type TailMetrics struct {
	// Offered is the configured open-loop rate, or the realised
	// arrival rate for closed-loop runs.
	Offered float64
	// Arrived counts logical requests arriving inside the measured
	// window; every one of them resolves as Completed or Failed when
	// the drain horizon suffices.
	Arrived   int
	Completed int
	// Failed counts requests abandoned after exhausting their retry
	// budget (timeouts and queue rejections with no tries left).
	Failed    int
	TimedOut  int
	Retried   int
	Hedged    int
	HedgeWins int
	Rejected  int
	// Latency samples end-to-end latency (ms) of completed requests
	// that arrived inside the measured window.
	Latency  *stats.Sample
	Measured float64 // seconds of measured arrival window
	UserUtil float64 // bottleneck (batch tier) utilisation over the arrival window
	// InFlightHWM is the high-water mark of requests in the system
	// (including retry, hedge and fan-out copies).
	InFlightHWM int
	// Events is the number of *useful* simulator events dispatched:
	// stale gen-checked timer no-ops are subtracted, so the count is
	// identical whichever scheduler ran the point (the heap oracle
	// pops a cancelled timer as a stale no-op; the calendar scheduler
	// never dispatches it at all).
	Events uint64
	// CancelledTimers counts timers logically descheduled (timeouts
	// and hedges of freed slots, size-preempted batch timers) —
	// identical across schedulers; only the calendar scheduler turns
	// each into a physical O(1) removal.
	CancelledTimers uint64
	Batches         int
	AvgBatchFill    float64
	SplitBatches    int
}

// Saturated reports whether the system failed to keep up with offered
// load, using the same tail blow-up heuristic as Metrics.Saturated:
// p99 over 10x the unloaded latency, or completion under 95 % of
// offered. Because the drain window lets a backlogged run finish every
// request eventually, the latency criterion is what catches saturation
// in runs without timeout policies.
func (m *TailMetrics) Saturated(baselineP99 float64) bool {
	if m.Latency.Len() == 0 {
		return true
	}
	if m.Offered > 0 && m.Measured > 0 &&
		float64(m.Completed) < 0.95*m.Offered*m.Measured {
		return true
	}
	return m.Latency.Percentile(99) > 10*baselineP99
}

// Throughput returns completed requests per measured second.
func (m *TailMetrics) Throughput() float64 {
	if m.Measured <= 0 {
		return 0
	}
	return float64(m.Completed) / m.Measured
}

// engine wires the arenas, stations, arrival process and policies to
// the Sim's typed-event loop.
type engine struct {
	cfg TailConfig
	arr ArrivalConfig
	pol PolicyConfig
	sim *Sim
	m   *TailMetrics

	g      *cgraph
	netHop float64

	sts    []estation
	latMul float64

	endMs, warmupMs float64

	reqs  []ereq
	freeR []int32
	live  int

	// staleEvents counts dispatched timer events whose generation check
	// failed (or whose target was already dead/launched) — the no-op
	// pops TailMetrics.Events subtracts to stay scheduler-invariant.
	staleEvents uint64

	batches    []ebatch
	freeB      []int32
	memberPool [][]int32
	forming    int32 // forming batch index, -1 when none

	// Arrival-process state (see arrivals.go).
	arrGen     int32
	mmppBurst  bool
	rate       float64
	rateCalm   float64
	rateBurst  float64
	rateMax    float64
	meanCalmMs float64

	inflightTS float64
}

// RunTail simulates one tail-at-scale load point. It returns an error
// for a degenerate configuration (a horizon that is not finite and
// positive, a negative or NaN warmup, drain, think time or policy
// value, open loop without a finite positive QPS, closed loop without
// users, RPU over a batchless graph) or an invalid graph spec, instead
// of silently reporting an empty run as measured.
func RunTail(cfg TailConfig) (*TailMetrics, error) {
	e, err := newTailEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run(), nil
}

func newTailEngine(cfg TailConfig) (*engine, error) {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	// A NaN or infinite horizon or rate never reaches the end of the
	// arrival window: the run would allocate until it died.
	if !(cfg.Seconds > 0) || math.IsInf(cfg.Seconds, 1) {
		return nil, fmt.Errorf("queuesim: Seconds must be finite and positive (got %v)", cfg.Seconds)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"Warmup", cfg.Warmup}, {"Drain", cfg.Drain}, {"Arrivals.ThinkMs", cfg.Arrivals.ThinkMs}} {
		if !(f.v >= 0) {
			return nil, fmt.Errorf("queuesim: %s must be a non-negative number (got %v)", f.name, f.v)
		}
	}
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	if cfg.Arrivals.Process == ArrClosed {
		if cfg.Arrivals.Users <= 0 {
			return nil, fmt.Errorf("queuesim: closed-loop arrivals need Users > 0 (got %d)", cfg.Arrivals.Users)
		}
	} else if !(cfg.QPS > 0) || math.IsInf(cfg.QPS, 1) {
		return nil, fmt.Errorf("queuesim: open-loop arrivals need a finite QPS > 0 (got %v)", cfg.QPS)
	}
	spec := cfg.Graph
	if spec == nil {
		spec = SocialGraph(cfg.Config)
	}
	g, err := compileGraph(spec)
	if err != nil {
		return nil, err
	}
	if cfg.RPU && !g.hasBatch {
		return nil, fmt.Errorf("queuesim: graph %q has no batch path; RPU mode needs one", g.name)
	}

	sim := NewSimSched(cfg.Seed, cfg.Scheduler)
	sim.Mon = cfg.Monitor
	e := &engine{cfg: cfg, pol: cfg.Policy, sim: sim, g: g,
		forming: -1, inflightTS: math.Inf(-1)}
	e.endMs = cfg.Seconds * 1000
	e.warmupMs = cfg.Warmup * 1000
	e.arr = cfg.Arrivals.withDefaults(e.endMs)
	e.netHop = g.netHop
	if e.netHop <= 0 {
		e.netHop = cfg.NetHop
	}

	e.latMul = 1
	capMul := 1.0
	if cfg.RPU {
		e.latMul = 1.2
		capMul = 5
	}
	scale := cfg.Scale
	cores := float64(cfg.Cores)
	e.sts = make([]estation, len(g.stations))
	for i, sd := range g.stations {
		var servers int32
		switch {
		case sd.infinite:
			servers = Inf
		case cfg.RPU && sd.batchTier:
			// cores × 5x × 1.2 (occupancy per batch) / batch width, per
			// machine, times Scale machines.
			servers = int32(math.Ceil(cores * sd.coresMul * 5 * 1.2 / float64(cfg.BatchSize) * scale))
		default:
			servers = int32(cores * sd.coresMul * capMul * scale)
		}
		if servers <= 0 {
			return nil, fmt.Errorf("queuesim: graph %q: station %q has zero servers at scale %v", g.name, sd.name, scale)
		}
		e.initStation(int32(i), sd.name, servers, cfg.RPU && sd.batched)
	}

	est := int(cfg.QPS * cfg.Seconds)
	if e.arr.Process == ArrClosed {
		est = e.arr.Users * 8
	}
	if est < 1024 {
		est = 1024
	}
	e.m = &TailMetrics{Offered: cfg.QPS, Latency: stats.NewSample(est)}
	e.m.Measured = cfg.Seconds - cfg.Warmup
	if e.m.Measured < 0 {
		e.m.Measured = 0
	}
	sim.Handle = e.handle
	e.startArrivals()
	return e, nil
}

func (e *engine) initStation(i int32, name string, servers int32, batched bool) {
	e.sts[i] = estation{name: name, idx: i, servers: servers, batched: batched}
	e.sts[i].probe = e.sim.Mon.station(name, int(servers))
}

func (e *engine) run() *TailMetrics {
	// Utilisation is measured over the arrival window; the drain that
	// follows collects in-flight completions without diluting it.
	e.sim.Run(e.endMs)
	e.m.UserUtil = e.stationUtil(e.g.utilStation)
	e.sim.Run(e.endMs + drainMs(e.cfg.Drain))
	if e.m.Batches > 0 {
		e.m.AvgBatchFill /= float64(e.m.Batches)
	}
	if e.arr.Process == ArrClosed && e.m.Measured > 0 {
		e.m.Offered = float64(e.m.Arrived) / e.m.Measured
	}
	e.m.Events = e.sim.Events() - e.staleEvents
	e.m.CancelledTimers = e.sim.CancelledTimers()
	e.finalizeObs()
	return e.m
}

func (e *engine) stationUtil(i int32) float64 {
	st := &e.sts[i]
	now := e.sim.now
	if now == 0 || st.servers == 0 {
		return 0
	}
	settled := st.busyTime + float64(st.busy)*(now-st.lastChange)
	return settled / (now * float64(st.servers))
}

func (e *engine) finalizeObs() {
	sc := e.cfg.Monitor.runScope()
	if sc == nil {
		return
	}
	sc.Gauge("inflight_hwm").Set(int64(e.m.InFlightHWM))
	sc.Counter("arrived").Add(int64(e.m.Arrived))
	sc.Counter("completed").Add(int64(e.m.Completed))
	sc.Counter("failed").Add(int64(e.m.Failed))
	sc.Counter("timed_out").Add(int64(e.m.TimedOut))
	sc.Counter("retried").Add(int64(e.m.Retried))
	sc.Counter("hedged").Add(int64(e.m.Hedged))
	sc.Counter("rejected").Add(int64(e.m.Rejected))
	sc.Counter("events").Add(int64(e.m.Events))
	e.finalizeSchedObs()
}

// finalizeSchedObs reports the scheduler's own health under
// queuesim.<label>.sched: the logical cancellation count plus, under
// the calendar scheduler, the calendar's resize/occupancy stats and
// the timer lanes' arm/fire/deschedule counters.
func (e *engine) finalizeSchedObs() {
	m := e.cfg.Monitor
	if m == nil || m.Reg == nil {
		return
	}
	sc := m.Reg.Scope(ScopeName(m.Label, "sched"))
	sc.Counter("stale_timer_events").Add(int64(e.staleEvents))
	sc.Counter("cancelled_timers").Add(int64(e.sim.ncancel))
	if e.cfg.Scheduler != SchedCalendar {
		return
	}
	cal, tl := &e.sim.cal, &e.sim.tl
	sc.Counter("cal_resizes").Add(int64(cal.resizes))
	sc.Counter("cal_direct_scans").Add(int64(cal.directScans))
	sc.Gauge("cal_bucket_hwm").Set(int64(cal.bucketHWM))
	sc.Gauge("cal_buckets").Set(int64(len(cal.buckets)))
	sc.Gauge("lanes").Set(int64(len(tl.lanes)))
	sc.Counter("lane_armed").Add(int64(tl.armed))
	sc.Counter("lane_fired").Add(int64(tl.fired))
	sc.Counter("lane_descheduled").Add(int64(tl.cancelled))
	sc.Counter("lane_lazy_fallbacks").Add(int64(tl.lazy))
	sc.Gauge("lane_ring_hwm").Set(int64(tl.ringHWM))
}

// handle routes typed events; this is the whole steady-state hot path.
func (e *engine) handle(kind uint8, a, b int32) {
	switch kind {
	case ekNet:
		e.enter(a, b)
	case ekSvcDone:
		e.onSvcDone(a, b)
	case ekArrival:
		e.onArrival(a)
	case ekBatchNet:
		e.enterBatch(a, b)
	case ekBatchDone:
		e.onBatchDone(a, b)
	case ekBatchTimer:
		e.onBatchTimer(a, b)
	case ekTimeout:
		e.onTimeout(a, b)
	case ekRetry:
		e.onRetry(a, b)
	case ekHedge:
		e.onHedge(a, b)
	case ekFlip:
		e.onFlip()
	case ekThink:
		e.onThink(a)
	}
}

// --- request arena ---

func (e *engine) alloc() int32 {
	var idx int32
	if n := len(e.freeR); n > 0 {
		idx = e.freeR[n-1]
		e.freeR = e.freeR[:n-1]
	} else {
		e.reqs = append(e.reqs, ereq{})
		idx = int32(len(e.reqs) - 1)
	}
	e.live++
	if e.live > e.m.InFlightHWM {
		e.m.InFlightHWM = e.live
	}
	e.sampleInflight()
	return idx
}

func (e *engine) free(idx int32) {
	r := &e.reqs[idx]
	// The slot's armed timers can never fire usefully once the
	// generation advances; deschedule them instead of leaving stale
	// no-op pops behind. (The retry timer is never cancelled: a slot
	// backing off has the retry event as its driver, which frees it.)
	if r.hTimeout != 0 {
		e.sim.Cancel(r.hTimeout)
		r.hTimeout = 0
	}
	if r.hHedge != 0 {
		e.sim.Cancel(r.hHedge)
		r.hHedge = 0
	}
	r.gen++
	// Clear the coins alongside the flags: a hedge armed against a try
	// that was inline-rejected (and hence freed) still fires on this
	// slot and copies its coins into a "ghost" hedge, which must draw
	// its edges from cleared coins — the recorded outputs (the
	// tail-policy digests, testdata/legacy_fingerprints.txt) depend on it.
	r.flags = 0
	r.coins = 0
	r.twin = -1
	e.freeR = append(e.freeR, idx)
	e.live--
}

// sampleInflight emits a thinned trace counter of the live population
// when a Monitor with a trace sink is attached.
func (e *engine) sampleInflight() {
	m := e.cfg.Monitor
	if m == nil || m.Sink == nil {
		return
	}
	if e.sim.now-e.inflightTS < m.MinDT {
		return
	}
	e.inflightTS = e.sim.now
	m.Sink.CounterPair("inflight", m.PID, e.sim.now*1000,
		"live", float64(e.live), "events_pending", float64(e.sim.Pending()))
}

// --- request lifecycle ---

// issue creates and launches a new logical request (user >= 0 ties it
// to a closed-loop client), drawing every declared coin, in
// declaration order, into the coin bitmask.
func (e *engine) issue(user int32) {
	idx := e.alloc()
	r := &e.reqs[idx]
	now := e.sim.now
	r.arrive = now
	r.user = user
	r.twin = -1
	r.parent = -1
	r.joins = 0
	r.tries = 0
	r.flags = 0
	r.coins = 0
	for i, p := range e.g.coins {
		if e.sim.Rng.Float64() < p {
			r.coins |= 1 << uint(i)
		}
	}
	if now >= e.warmupMs && now <= e.endMs {
		e.m.Arrived++
	}
	e.launchTry(idx)
	if e.pol.HedgeMs > 0 {
		e.reqs[idx].hHedge = e.sim.AtTimer(e.pol.HedgeMs, ekHedge, idx, int32(e.reqs[idx].gen))
	}
}

// launchTry arms the per-try timeout and enters the request at the
// graph entry (stage 0 is entered directly, as in Run).
func (e *engine) launchTry(idx int32) {
	if e.pol.TimeoutMs > 0 {
		e.reqs[idx].hTimeout = e.sim.AtTimer(e.pol.TimeoutMs, ekTimeout, idx, int32(e.reqs[idx].gen))
	}
	e.enter(idx, e.g.entry)
}

func (e *engine) submitReq(st *estation, idx int32) {
	if st.busy < st.servers {
		st.account(e.sim.now)
		st.busy++
		e.serveReq(st, idx)
	} else if e.pol.QueueCap > 0 && st.q.n >= e.pol.QueueCap {
		e.m.Rejected++
		if e.reqs[idx].flags&rfLeg != 0 {
			e.rejectLeg(idx)
		} else {
			e.abandonTry(idx, true)
		}
	} else {
		st.q.push(pack(idx, e.reqs[idx].gen))
	}
	st.probe.sample(e.sim.now, st.q.n, int(st.busy))
}

func (e *engine) onSvcDone(idx, stIdx int32) {
	st := &e.sts[stIdx]
	now := e.sim.now
	st.account(now)
	st.busy--
	r := &e.reqs[idx]
	st.probe.observe(now, now-r.enq)
	st.probe.sample(now, st.q.n, int(st.busy))
	e.dispatchNext(st)
	if r.flags&rfDead != 0 {
		e.free(idx)
		return
	}
	e.advance(idx)
}

// dispatchNext pulls queued work onto freed servers, collecting dead
// and stale entries on the way.
func (e *engine) dispatchNext(st *estation) {
	for st.busy < st.servers && st.q.n > 0 {
		idx, gen := unpack(st.q.pop())
		if st.batched {
			b := &e.batches[idx]
			if b.gen != gen {
				continue
			}
			st.account(e.sim.now)
			st.busy++
			e.serveBatch(st, idx)
			continue
		}
		r := &e.reqs[idx]
		if r.gen != gen {
			continue // slot was freed (and possibly reused): stale entry
		}
		if r.flags&rfDead != 0 {
			e.free(idx) // the queue slot was its driver
			continue
		}
		st.account(e.sim.now)
		st.busy++
		e.serveReq(st, idx)
	}
}

// complete resolves a logical request: cancels its hedge twin, records
// the latency by arrival window, wakes its closed-loop user and frees
// the slot.
func (e *engine) complete(idx int32) {
	r := &e.reqs[idx]
	if r.twin >= 0 {
		t := &e.reqs[r.twin]
		if t.twin == idx {
			t.twin = -1
			t.flags |= rfDead // the loser's driver collects it
			if r.flags&rfHedge != 0 {
				e.m.HedgeWins++
			}
		}
		r.twin = -1
	}
	if r.arrive >= e.warmupMs && r.arrive <= e.endMs {
		e.m.Completed++
		e.m.Latency.Add(e.sim.now - r.arrive)
	}
	if r.user >= 0 {
		e.think(r.user)
	}
	e.free(idx)
}

// wireHop schedules kind after the network hop. Every hop shares one
// delay, so it rides a timer lane; the handle is never needed.
func (e *engine) wireHop(kind uint8, a, b int32) {
	e.sim.AtTimer(e.netHop, kind, a, b)
}

// --- policies ---

func (e *engine) onTimeout(idx, gen int32) {
	r := &e.reqs[idx]
	if r.gen != uint32(gen) {
		// The slot was freed (its timer was cancelled in its lane; the
		// heap oracle still pops it): a stale no-op.
		e.staleEvents++
		return
	}
	r.hTimeout = 0 // this firing consumes the slot's armed timeout
	if r.flags&rfDead != 0 {
		e.staleEvents++
		return
	}
	e.m.TimedOut++
	e.abandonTry(idx, false)
}

// abandonTry gives up on the current try: retry with backoff if budget
// remains, otherwise fail the logical request. When the caller is the
// slot's driver (inline queue rejection) the slot is freed here; a
// timeout is not the driver and leaves the dead slot for its queue
// entry / in-service event / outstanding legs to collect.
func (e *engine) abandonTry(idx int32, isDriver bool) {
	e.reqs[idx].flags |= rfDead
	r := &e.reqs[idx]
	// r.tries < 255 saturates the uint8 counter: with MaxRetries ≥ 255
	// it would wrap to 0 and retry forever.
	if int(r.tries) < e.pol.MaxRetries && r.tries < math.MaxUint8 {
		e.m.Retried++
		n := e.alloc()
		r = &e.reqs[idx] // alloc may have grown the arena
		c := &e.reqs[n]
		c.arrive = r.arrive
		c.user = r.user
		c.tries = r.tries + 1
		c.flags = r.flags & rfHedge
		c.coins = r.coins
		c.twin = -1
		c.parent = -1
		c.joins = 0
		// A hedge pair survives a retry: relink so the first completion
		// still cancels the other copy.
		if r.twin >= 0 {
			t := &e.reqs[r.twin]
			if t.twin == idx {
				t.twin = n
				c.twin = r.twin
			}
			r.twin = -1
		}
		// The retry is never cancelled: it is the backing-off slot's
		// driver and must always fire (it frees a slot whose twin
		// resolved during the backoff). Its delay is jittered, so it
		// goes to the calendar rather than a fixed-delay lane.
		e.sim.AtEvent(e.backoff(c.tries), ekRetry, n, int32(c.gen))
	} else {
		e.failTry(idx)
	}
	if isDriver {
		e.free(idx)
	}
}

// failTry resolves a logical request as failed — unless a live hedge
// twin remains, in which case the survivor carries it alone.
func (e *engine) failTry(idx int32) {
	r := &e.reqs[idx]
	survivor := false
	if r.twin >= 0 {
		t := &e.reqs[r.twin]
		if t.twin == idx && t.flags&rfDead == 0 {
			survivor = true
			t.twin = -1
		}
		r.twin = -1
	}
	if !survivor {
		if r.arrive >= e.warmupMs && r.arrive <= e.endMs {
			e.m.Failed++
		}
		if r.user >= 0 {
			e.think(r.user)
		}
	}
}

func (e *engine) onRetry(idx, gen int32) {
	r := &e.reqs[idx]
	if r.gen != uint32(gen) {
		e.staleEvents++
		return
	}
	if r.flags&rfDead != 0 {
		e.free(idx) // cancelled while backing off (its twin resolved first)
		return
	}
	e.launchTry(idx)
}

func (e *engine) onHedge(idx, gen int32) {
	r := &e.reqs[idx]
	if r.gen != uint32(gen) {
		e.staleEvents++
		return
	}
	r.hHedge = 0 // this firing consumes the slot's armed hedge
	if r.flags&rfDead != 0 || r.twin >= 0 {
		e.staleEvents++
		return
	}
	e.m.Hedged++
	n := e.alloc()
	r = &e.reqs[idx]
	c := &e.reqs[n]
	c.arrive = r.arrive
	c.user = r.user
	c.tries = 0
	c.flags = rfHedge
	c.coins = r.coins
	c.twin = idx
	c.parent = -1
	c.joins = 0
	r.twin = n
	e.launchTry(n)
}

// --- batches (RPU mode) ---

func (e *engine) allocBatch() int32 {
	var idx int32
	if n := len(e.freeB); n > 0 {
		idx = e.freeB[n-1]
		e.freeB = e.freeB[:n-1]
	} else {
		e.batches = append(e.batches, ebatch{})
		idx = int32(len(e.batches) - 1)
	}
	b := &e.batches[idx]
	b.parent = -1
	b.joins = 0
	if n := len(e.memberPool); n > 0 {
		b.members = e.memberPool[n-1][:0]
		e.memberPool = e.memberPool[:n-1]
	} else {
		b.members = make([]int32, 0, e.cfg.BatchSize)
	}
	return idx
}

func (e *engine) freeBatch(idx int32) {
	b := &e.batches[idx]
	if b.hTimer != 0 {
		e.sim.Cancel(b.hTimer)
		b.hTimer = 0
	}
	b.gen++
	b.forming = false
	e.memberPool = append(e.memberPool, b.members)
	b.members = nil
	e.freeB = append(e.freeB, idx)
}

// joinBatch adds a formation-point request to the forming batch,
// arming the formation timer when the batch is born — per batch, from
// its first request, exactly the semantics the closure batcher's
// generation counter enforces.
func (e *engine) joinBatch(idx int32) {
	if e.forming < 0 {
		bi := e.allocBatch()
		e.forming = bi
		b := &e.batches[bi]
		b.forming = true
		b.hTimer = e.sim.AtTimer(e.cfg.BatchTimeout, ekBatchTimer, bi, int32(b.gen))
	}
	b := &e.batches[e.forming]
	b.members = append(b.members, idx)
	if len(b.members) >= e.cfg.BatchSize {
		bi := e.forming
		e.forming = -1
		e.launchBatch(bi)
	}
}

func (e *engine) onBatchTimer(bi, gen int32) {
	b := &e.batches[bi]
	if b.gen != uint32(gen) {
		e.staleEvents++
		return
	}
	b.hTimer = 0 // this firing consumes the batch's armed timer
	if !b.forming {
		e.staleEvents++
		return
	}
	e.forming = -1
	e.launchBatch(bi)
}

func (e *engine) launchBatch(bi int32) {
	b := &e.batches[bi]
	if b.hTimer != 0 {
		// Size-triggered launch: the formation timer can never fire
		// usefully again, so deschedule it.
		e.sim.Cancel(b.hTimer)
		b.hTimer = 0
	}
	b.forming = false
	e.m.Batches++
	e.m.AvgBatchFill += float64(len(b.members))
	if e.g.bentryHop {
		e.wireHop(ekBatchNet, bi, e.g.bentry)
	} else {
		e.enterBatch(bi, e.g.bentry)
	}
}

func (e *engine) submitBatch(st *estation, bi int32) {
	if st.busy < st.servers {
		st.account(e.sim.now)
		st.busy++
		e.serveBatch(st, bi)
	} else {
		st.q.push(pack(bi, e.batches[bi].gen))
	}
	st.probe.sample(e.sim.now, st.q.n, int(st.busy))
}

func (e *engine) onBatchDone(bi, stIdx int32) {
	st := &e.sts[stIdx]
	now := e.sim.now
	st.account(now)
	st.busy--
	b := &e.batches[bi]
	st.probe.observe(now, now-b.enq)
	st.probe.sample(now, st.q.n, int(st.busy))
	e.dispatchNext(st)
	e.routeBatch(bi)
}

func (e *engine) completeBatch(bi int32) {
	b := &e.batches[bi]
	for _, idx := range b.members {
		if e.reqs[idx].flags&rfDead != 0 {
			e.free(idx)
			continue
		}
		e.complete(idx)
	}
	e.freeBatch(bi)
}
