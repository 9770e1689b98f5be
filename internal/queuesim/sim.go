// Package queuesim is a discrete-event microservice-interaction
// simulator in the spirit of uqsim, used for the paper's system-level
// evaluation (Figure 22): request arrivals flow through the
// social-network path WebServer → User → McRouter → Memcached →
// Storage, with multi-server FIFO stations, network hops, RPU batch
// formation, reconvergence waiting and the §III-B5 batch-splitting
// technique. Beyond the closure-coded Figure 22 graph (social.go), the
// tail-at-scale engine (engine.go) runs declarative service graphs
// (graph.go) — the same scenario, the Figure 3 compose-post path and
// three more — at data-center populations (10⁶+ in-flight requests)
// with burst/diurnal/closed-loop arrivals and timeout/retry/hedge
// policies.
package queuesim

import (
	"fmt"
	"math"
	"math/rand"
)

// event is one scheduled occurrence, stored by value and ordered by
// (at, seq) so same-time events dispatch in FIFO order. The loop is
// non-boxing: nothing passes through interface{} on push or pop. kind
// evFunc carries a closure — the path the Figure 22 closure graph
// uses; the reserved internal kinds route Station completions and
// batcher timers inside the Sim; any other kind goes to the Handle hook
// with the two int32 payload words, which is the allocation-free path
// the tail engine rides (a typed event costs zero heap allocations to
// schedule or dispatch).
type event struct {
	at   float64
	seq  uint64
	fn   func()
	a, b int32
	kind uint8
}

// evFunc is the closure-callback event kind; engine.go defines the
// typed kinds starting at 1. Kinds 0xF0 and up are reserved for the
// Sim's internal dispatch (Station service completions, batcher
// formation timers) and never reach the Handle hook.
const (
	evFunc    uint8 = 0
	evStation uint8 = 0xFE // station a finished serving in-service slot b
	evBatcher uint8 = 0xFD // formation timer for batcher a at generation b
)

// Scheduler selects the pending-event container.
type Scheduler uint8

const (
	// SchedCalendar (the tail engine's default) is the O(1) scheduler:
	// a calendar queue for ordinary events plus fixed-delay FIFO lanes
	// (lane.go) for timers armed with AtTimer, which Cancel physically
	// deschedules.
	SchedCalendar Scheduler = iota
	// SchedHeap is the binary index-min heap — the byte-identity
	// oracle, and the container the closure API (NewSim) keeps.
	// Cancelled timers stay queued and dispatch as stale no-ops.
	SchedHeap
)

// String names the scheduler for flags and JSON artifacts.
func (s Scheduler) String() string {
	if s == SchedHeap {
		return "heap"
	}
	return "calendar"
}

// ParseScheduler maps a flag string to a Scheduler; the empty string
// means the default (calendar).
func ParseScheduler(s string) (Scheduler, error) {
	switch s {
	case "", "calendar":
		return SchedCalendar, nil
	case "heap":
		return SchedHeap, nil
	}
	return SchedCalendar, fmt.Errorf("queuesim: unknown scheduler %q (want heap or calendar)", s)
}

// TimerID identifies a cancellable timer armed with AtTimer. The zero
// value means "no timer armed"; callers keep at most one live copy and
// clear it when the timer fires or is cancelled.
type TimerID int32

// lazyTimer is the heap scheduler's shared handle: a heap cannot
// deschedule from its middle, so Cancel only records the logical
// cancellation and the event later pops as a stale no-op.
const lazyTimer TimerID = -1

// Sim is the event loop.
type Sim struct {
	now   float64
	sched Scheduler
	pq    []event    // SchedHeap container
	cal   calQueue   // SchedCalendar: ordinary events
	tl    timerLanes // SchedCalendar: AtTimer timers

	seq     uint64
	nev     uint64
	ncancel uint64
	Rng     *rand.Rand
	// Handle dispatches typed events scheduled with AtEvent/AtTimer.
	// The tail engine installs itself here; nil is fine while only At
	// is used.
	Handle func(kind uint8, a, b int32)
	// Mon optionally observes the run (station time series, per-hop
	// latency histograms, trace events on the simulated clock). Set it
	// before creating stations; nil (the default) records nothing and
	// costs one pointer test per state change.
	Mon *Monitor

	stations []*Station
	batchers []batchFlusher

	// Closure sidecar for the calendar scheduler: evFunc events store an
	// arena index in their a payload instead of carrying the func pointer
	// through the 32-byte calEvent. Typed events (the tail engine's only
	// traffic) never touch it.
	calFns    []func()
	calFnFree []int32
}

// NewSim creates a simulator with the given random seed on the binary
// heap — the container the closure-based Figure 22 graphs have always
// run on. The tail engine picks its scheduler via NewSimSched.
func NewSim(seed int64) *Sim {
	return &Sim{Rng: rand.New(rand.NewSource(seed)), sched: SchedHeap}
}

// NewSimSched creates a simulator on the given scheduler. Event
// ordering — and therefore every simulation output — is bit-identical
// across schedulers; only the container (and whether Cancel physically
// removes a timer) differs.
func NewSimSched(seed int64, sched Scheduler) *Sim {
	return &Sim{Rng: rand.New(rand.NewSource(seed)), sched: sched}
}

// Now returns the current simulation time (milliseconds).
func (s *Sim) Now() float64 { return s.now }

// Events returns the number of events dispatched so far. The count is
// scheduler-dependent under cancellation: the calendar scheduler never
// dispatches a cancelled timer, while the heap oracle pops it as a
// stale no-op and counts it here. Simulation metrics are unchanged
// either way (stale pops touch nothing); consumers wanting a
// scheduler-invariant count subtract their stale dispatches, as
// TailMetrics.Events does.
func (s *Sim) Events() uint64 { return s.nev }

// Pending returns the number of scheduled events not yet dispatched.
// Timers cancelled under the calendar scheduler are descheduled
// immediately and do not count; under the heap oracle a cancelled
// timer remains queued (and counted) until its stale no-op pop.
func (s *Sim) Pending() int {
	if s.sched == SchedCalendar {
		return s.cal.count + s.tl.live
	}
	return len(s.pq)
}

// CancelledTimers returns the number of Cancel calls on live timers —
// the logical cancellation count, identical across schedulers.
func (s *Sim) CancelledTimers() uint64 { return s.ncancel }

func (s *Sim) less(i, j int) bool {
	if s.pq[i].at != s.pq[j].at {
		return s.pq[i].at < s.pq[j].at
	}
	return s.pq[i].seq < s.pq[j].seq
}

// parkFn parks a closure in the calendar sidecar and returns its slot.
func (s *Sim) parkFn(fn func()) int32 {
	if n := len(s.calFnFree); n > 0 {
		i := s.calFnFree[n-1]
		s.calFnFree = s.calFnFree[:n-1]
		s.calFns[i] = fn
		return i
	}
	s.calFns = append(s.calFns, fn)
	return int32(len(s.calFns) - 1)
}

// takeFn retrieves and frees a parked closure.
func (s *Sim) takeFn(i int32) func() {
	fn := s.calFns[i]
	s.calFns[i] = nil // drop the closure reference
	s.calFnFree = append(s.calFnFree, i)
	return fn
}

func (s *Sim) push(e event) {
	if s.sched == SchedCalendar {
		ce := calEvent{at: e.at, seq: e.seq, a: e.a, b: e.b, kind: uint32(e.kind)}
		if e.kind == evFunc {
			ce.a = s.parkFn(e.fn)
		}
		s.cal.push(ce)
		return
	}
	s.pq = append(s.pq, e)
	i := len(s.pq) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s.pq[i], s.pq[p] = s.pq[p], s.pq[i]
		i = p
	}
}

func (s *Sim) pop() event {
	e := s.pq[0]
	n := len(s.pq) - 1
	s.pq[0] = s.pq[n]
	s.pq[n] = event{} // drop the closure reference
	s.pq = s.pq[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s.pq[i], s.pq[m] = s.pq[m], s.pq[i]
		i = m
	}
	return e
}

// At schedules fn to run after delay.
func (s *Sim) At(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.push(event{at: s.now + delay, seq: s.seq, fn: fn})
}

// AtEvent schedules a typed event for the Handle hook after delay. The
// two payload words identify the target (an arena index plus a stage,
// station or generation, by kind) without boxing or closures.
func (s *Sim) AtEvent(delay float64, kind uint8, a, b int32) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.push(event{at: s.now + delay, seq: s.seq, kind: kind, a: a, b: b})
}

// AtTimer schedules a typed event like AtEvent but returns a handle
// Cancel can deschedule. Under the calendar scheduler the timer joins
// the FIFO lane for its exact delay and Cancel tombstones it in O(1),
// so it never dispatches; under the heap oracle (or when the lane
// handles run out) the handle is the shared lazy sentinel and the
// event still pops (the caller's generation check makes it a no-op).
// The arming sequence number is consumed identically either way, so
// dispatch order is scheduler-invariant. Timers sharing a delay should
// come through here even when never cancelled: a lane append is
// cheaper than a calendar insert.
func (s *Sim) AtTimer(delay float64, kind uint8, a, b int32) TimerID {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	if s.sched == SchedCalendar {
		if id, ok := s.tl.arm(delay, calEvent{at: s.now + delay, seq: s.seq, a: a, b: b, kind: uint32(kind)}); ok {
			return id
		}
	}
	s.push(event{at: s.now + delay, seq: s.seq, kind: kind, a: a, b: b})
	return lazyTimer
}

// Cancel deschedules a timer armed with AtTimer. The zero TimerID is
// ignored; a non-zero handle must not be reused after Cancel or after
// its timer fired. Cancellation is counted identically on every
// scheduler (see CancelledTimers); only the calendar scheduler
// physically removes the entry.
func (s *Sim) Cancel(id TimerID) {
	if id == 0 {
		return
	}
	s.ncancel++
	if id != lazyTimer {
		s.tl.cancel(id)
	}
}

// dispatch routes one popped event: closures, the Sim-internal station
// and batcher kinds, then the Handle hook for the engine's typed
// kinds.
func (s *Sim) dispatch(e event) {
	switch e.kind {
	case evFunc:
		e.fn()
	case evStation:
		s.stations[e.a].svcDone(e.b)
	case evBatcher:
		s.batchers[e.a].fire(e.b)
	default:
		s.Handle(e.kind, e.a, e.b)
	}
}

// Run processes events until the queue empties or the next event lies
// beyond until. Either way the clock finishes at until, so time-based
// rates (station utilisation, throughput over the horizon) use the
// same denominator regardless of how the run ended. A future event
// that stops the run stays queued for a later Run call.
func (s *Sim) Run(until float64) {
	if s.sched == SchedCalendar {
		s.runCal(until)
		return
	}
	for len(s.pq) > 0 && s.pq[0].at <= until {
		e := s.pop()
		s.now = e.at
		s.nev++
		s.dispatch(e)
	}
	if s.now < until {
		s.now = until
	}
}

// dispatchCal routes one popped calendar or lane event without widening
// it back into the heap's boxed form: closures come out of the sidecar
// arena, everything else carries its payload inline.
func (s *Sim) dispatchCal(e calEvent) {
	switch uint8(e.kind) {
	case evFunc:
		s.takeFn(e.a)()
	case evStation:
		s.stations[e.a].svcDone(e.b)
	case evBatcher:
		s.batchers[e.a].fire(e.b)
	default:
		s.Handle(uint8(e.kind), e.a, e.b)
	}
}

// runCal is the calendar-mode loop: each step merges the calendar
// queue's head with the earliest lane head, dispatching whichever
// holds the global (at, seq) minimum.
func (s *Sim) runCal(until float64) {
	for {
		cat, cseq, cok := s.cal.peek()
		var e calEvent
		if l := s.tl.head(); l != nil && (!cok || l.before(cat, cseq)) {
			if l.front().at > until {
				break
			}
			e = s.tl.pop(l)
		} else {
			if !cok || cat > until {
				break
			}
			e = s.cal.pop()
		}
		s.now = e.at
		s.nev++
		s.dispatchCal(e)
	}
	if s.now < until {
		s.now = until
	}
}

// Exp draws an exponential sample with the given mean.
func (s *Sim) Exp(mean float64) float64 {
	return s.Rng.ExpFloat64() * mean
}

// Station is a multi-server FIFO service station. Work items occupy one
// server for their service demand and then invoke their completion.
// Service completions ride the Sim's typed-event path with the work
// item parked in a pooled in-service arena, so dispatching service
// allocates nothing (the caller's done closure is the only allocation,
// made at Submit time by the caller).
type Station struct {
	sim     *Sim
	Name    string
	Servers int
	id      int32
	busy    int
	queue   []work
	inserv  []work // in-service arena, indexed by the event's b payload
	freeW   []int32
	// Busy-time accounting for utilisation reporting.
	busyTime   float64
	lastChange float64
	// probe is the optional observability hook (nil unless sim.Mon was
	// set when the station was created). It only reads station state.
	probe *stationProbe
}

type work struct {
	demand float64
	enq    float64 // submission time, for per-hop sojourn observation
	done   func()
}

// NewStation creates a station with c servers.
func NewStation(sim *Sim, name string, c int) *Station {
	st := &Station{sim: sim, Name: name, Servers: c, id: int32(len(sim.stations))}
	st.probe = sim.Mon.station(name, c)
	sim.stations = append(sim.stations, st)
	return st
}

// Submit enqueues a work item requiring demand service time; done runs
// when service completes.
func (st *Station) Submit(demand float64, done func()) {
	st.queue = append(st.queue, work{demand: demand, enq: st.sim.now, done: done})
	st.dispatch()
	st.probe.sample(st.sim.now, len(st.queue), st.busy)
}

func (st *Station) dispatch() {
	for st.busy < st.Servers && len(st.queue) > 0 {
		w := st.queue[0]
		st.queue = st.queue[1:]
		st.account()
		st.busy++
		var wi int32
		if n := len(st.freeW); n > 0 {
			wi = st.freeW[n-1]
			st.freeW = st.freeW[:n-1]
			st.inserv[wi] = w
		} else {
			st.inserv = append(st.inserv, w)
			wi = int32(len(st.inserv) - 1)
		}
		st.sim.AtEvent(w.demand, evStation, st.id, wi)
	}
}

// svcDone completes in-service slot wi — the typed-event successor of
// the per-item closure this path used to allocate.
func (st *Station) svcDone(wi int32) {
	w := st.inserv[wi]
	st.inserv[wi] = work{} // drop the done closure
	st.freeW = append(st.freeW, wi)
	st.account()
	st.busy--
	st.probe.observe(st.sim.now, st.sim.now-w.enq)
	st.probe.sample(st.sim.now, len(st.queue), st.busy)
	if w.done != nil {
		w.done()
	}
	st.dispatch()
}

func (st *Station) account() {
	st.busyTime += float64(st.busy) * (st.sim.now - st.lastChange)
	st.lastChange = st.sim.now
}

// Utilization returns average busy servers / servers over the run.
// account() only settles busy time on dispatch and completion events,
// so the still-busy tail between the last state change and the current
// clock is added here; combined with Run finishing the clock at its
// horizon, the numerator and denominator always cover the same window.
func (st *Station) Utilization() float64 {
	if st.sim.now == 0 || st.Servers == 0 {
		return 0
	}
	settled := st.busyTime + float64(st.busy)*(st.sim.now-st.lastChange)
	return settled / (st.sim.now * float64(st.Servers))
}

// QueueLen returns the instantaneous queue length.
func (st *Station) QueueLen() int { return len(st.queue) }

// Jitter returns a mildly noisy service demand (uniform ±20 %),
// avoiding the determinism artifacts of fixed service times.
func (s *Sim) Jitter(mean float64) float64 {
	return mean * (0.8 + 0.4*s.Rng.Float64())
}

// Inf is a server count that never queues.
const Inf = math.MaxInt32

// batchFlusher lets the Sim dispatch a generic batcher's formation
// timer through a typed event instead of a boxed closure.
type batchFlusher interface {
	fire(gen int32)
}

// registerBatcher assigns a batcher its typed-event identity on first
// use.
func (s *Sim) registerBatcher(b batchFlusher) int32 {
	s.batchers = append(s.batchers, b)
	return int32(len(s.batchers) - 1)
}

// batcher accumulates values into fixed-size batches with a formation
// timeout measured from each batch's *first* element. A size-triggered
// flush invalidates the pending timer (via the generation check), so a
// stale timer armed for an already-launched batch can never flush its
// successor early — the bug the generation counter exists to prevent.
type batcher[T any] struct {
	sim        *Sim
	size       int
	timeout    float64
	launch     func([]T)
	pending    []T
	gen        int
	id         int32
	registered bool
}

func (b *batcher[T]) add(v T) {
	b.pending = append(b.pending, v)
	if len(b.pending) >= b.size {
		b.flush()
		return
	}
	if len(b.pending) == 1 {
		if !b.registered {
			b.id = b.sim.registerBatcher(b)
			b.registered = true
		}
		b.sim.AtEvent(b.timeout, evBatcher, b.id, int32(b.gen))
	}
}

// fire is the typed-event form of the old timeout closure: flush only
// if no size-triggered flush advanced the generation first.
func (b *batcher[T]) fire(gen int32) {
	if int(gen) == b.gen {
		b.flush()
	}
}

func (b *batcher[T]) flush() {
	b.gen++
	if len(b.pending) == 0 {
		return
	}
	p := b.pending
	b.pending = nil
	b.launch(p)
}
