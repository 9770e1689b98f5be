// Fixed-delay timer lanes: where the calendar scheduler keeps the
// timers armed with AtTimer. Every timer the tail engine arms — the
// per-try timeout, the hedge point, the batch formation timeout, the
// network hop — has a per-run constant delay, and timers sharing one
// delay fire in arming order: at = now + delay is monotone in the
// simulated clock, and seq breaks ties. Each distinct delay therefore
// gets a FIFO lane, a power-of-two ring of 32-byte calEvents that is
// already sorted by (at, seq): arming appends, firing pops the head,
// and Cancel tombstones the entry in place. runCal merges the calendar
// head with the earliest lane head, so dispatch keeps the global
// (at, seq) order every scheduler shares. Rings only grow, so steady
// state allocates nothing.
package queuesim

const (
	// A lane TimerID packs the 1-based lane number above lanePosBits
	// and the entry's ring position below them, so a handle stays 32
	// bits. A Sim that would need more than maxLanes lanes, or a ring
	// longer than the position field, arms lazyTimer calendar events
	// instead — the heap's semantics.
	lanePosBits = 27
	lanePosMask = 1<<lanePosBits - 1
	maxLanes    = 1<<(31-lanePosBits) - 1
	laneMinCap  = 64
	// laneDead is the kind of a cancelled entry awaiting its turn at
	// the head; real kinds fit in a uint8.
	laneDead = ^uint32(0)
)

// timerLane is the FIFO of pending timers armed with one exact delay.
// Entry number i (counted from the lane's first arming) lives at
// ev[i&(len(ev)-1)]; [head, tail) is queued, and the head entry is
// always live.
type timerLane struct {
	delay      float64
	ev         []calEvent
	head, tail uint64
}

func (l *timerLane) front() *calEvent { return &l.ev[l.head&uint64(len(l.ev)-1)] }

// before reports whether the lane's head dispatches ahead of (at, seq).
func (l *timerLane) before(at float64, seq uint64) bool {
	f := l.front()
	return f.at < at || (f.at == at && f.seq < seq)
}

// skipDead advances the head past tombstones.
func (l *timerLane) skipDead() {
	for l.head < l.tail && l.front().kind == laneDead {
		l.head++
	}
}

func (l *timerLane) grow() {
	n := 2 * len(l.ev)
	if n == 0 {
		n = laneMinCap
	}
	ev := make([]calEvent, n)
	for i := l.head; i < l.tail; i++ {
		ev[i&uint64(n-1)] = l.ev[i&uint64(len(l.ev)-1)]
	}
	l.ev = ev
}

// timerLanes is the Sim's set of lanes plus a cached index of the lane
// with the earliest head.
type timerLanes struct {
	lanes []timerLane
	min   int // lane with the earliest head; -1 = recompute
	live  int // armed, neither fired nor cancelled

	// Stats reported under the queuesim.<label>.sched scope.
	armed     uint64
	fired     uint64
	cancelled uint64
	lazy      uint64 // arms that fell back to lazyTimer calendar events
	ringHWM   int
}

// arm appends e to the lane for delay, creating the lane on first use.
// ok is false when the handle cannot encode the entry; the caller then
// schedules e on the calendar instead.
func (t *timerLanes) arm(delay float64, e calEvent) (id TimerID, ok bool) {
	li := 0
	for li < len(t.lanes) && t.lanes[li].delay != delay {
		li++
	}
	if li == len(t.lanes) {
		if li == maxLanes {
			t.lazy++
			return 0, false
		}
		t.lanes = append(t.lanes, timerLane{delay: delay})
	}
	l := &t.lanes[li]
	n := int(l.tail - l.head)
	if n == len(l.ev) {
		if n > lanePosMask {
			t.lazy++
			return 0, false
		}
		l.grow()
	}
	if n == 0 {
		t.min = -1 // a new head may be the earliest
	}
	l.ev[l.tail&uint64(len(l.ev)-1)] = e
	id = TimerID((li+1)<<lanePosBits | int(l.tail&lanePosMask))
	l.tail++
	if n+1 > t.ringHWM {
		t.ringHWM = n + 1
	}
	t.live++
	t.armed++
	return id, true
}

// cancel tombstones a queued lane timer; a handle whose timer already
// fired or was cancelled is ignored.
func (t *timerLanes) cancel(id TimerID) {
	l := &t.lanes[int(id>>lanePosBits)-1]
	i := l.head + (uint64(id)-l.head)&lanePosMask
	if i >= l.tail {
		return
	}
	e := &l.ev[i&uint64(len(l.ev)-1)]
	if e.kind == laneDead {
		return
	}
	e.kind = laneDead
	t.live--
	t.cancelled++
	if i == l.head {
		l.skipDead()
		t.min = -1
	}
}

// head returns the lane holding the earliest live timer, or nil.
func (t *timerLanes) head() *timerLane {
	if t.live == 0 {
		return nil
	}
	if t.min < 0 {
		for i := range t.lanes {
			l := &t.lanes[i]
			if l.head < l.tail && (t.min < 0 || eventLess(l.front(), t.lanes[t.min].front())) {
				t.min = i
			}
		}
	}
	return &t.lanes[t.min]
}

// pop removes and returns l's head, which head() just returned.
func (t *timerLanes) pop(l *timerLane) calEvent {
	e := *l.front()
	l.head++
	l.skipDead()
	t.min = -1
	t.live--
	t.fired++
	return e
}
