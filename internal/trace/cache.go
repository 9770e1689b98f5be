// Package trace shares scalar traces across the cells of a study sweep.
// Every study cell (arch × service × batch-size × policy) replays the
// same request stream, and a request's dynamic trace is a pure function
// of (program/API, args, seed) plus the layout inputs the study
// derives from the batch position: thread index (which fixes the stack
// base, since every study lays batch 0's stacks at the same region),
// heap allocation policy and the L1 geometry the SIMR-aware allocator
// aligns against.
//
// Admission follows from the sweep's plan. Before any cell runs, the
// study enumerates every read each cell will make into a Plan; the
// Cache built from it retains only keys with at least two planned
// reads and releases each entry, and its budget bytes, at the entry's
// last planned read. Every other read is interpreted fresh by the
// reading prep slot's Interp, into a buffer the slot owns and reuses.
//
// Cached traces MUST be treated as immutable: the SIMT lock-step
// executor, the uop converters and isa.Summarize all only read TraceOp
// slices, and any new consumer has to preserve that. Caching never
// changes results — a hit returns exactly the trace a fresh
// interpretation would produce — so study output stays byte-identical
// whether or not (and how often) the cache is consulted.
package trace

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"simr/internal/alloc"
	"simr/internal/isa"
	"simr/internal/obs"
	"simr/internal/seedrng"
	"simr/internal/uservices"
)

// traceOpBytes is the retained-memory cost of one cached TraceOp.
const traceOpBytes = int64(unsafe.Sizeof(isa.TraceOp{}))

// DefaultBudgetBytes bounds the bytes of trace data a sweep retains by
// default. The caches degrade to interpreting fresh (never to wrong
// results) once the budget is spent.
const DefaultBudgetBytes = 512 << 20

// Budget is a byte budget shared by the caches of one sweep. It bounds
// the total retained trace bytes across all services regardless of how
// the worker pool interleaves their cells.
type Budget struct{ left atomic.Int64 }

// NewBudget returns a budget of maxBytes (<= 0 selects
// DefaultBudgetBytes).
func NewBudget(maxBytes int64) *Budget {
	if maxBytes <= 0 {
		maxBytes = DefaultBudgetBytes
	}
	b := &Budget{}
	b.left.Store(maxBytes)
	return b
}

// reserve takes n bytes from the budget, reporting whether they were
// available.
func (b *Budget) reserve(n int64) bool {
	if b == nil {
		return true
	}
	if b.left.Add(-n) >= 0 {
		return true
	}
	b.left.Add(n)
	return false
}

// release returns n bytes to the budget.
func (b *Budget) release(n int64) {
	if b != nil {
		b.left.Add(n)
	}
}

// Counter indices of a cache's Stats, in obs name order.
const (
	nHits = iota
	nMisses
	nBypassed
	nDrops
	nFresh
	nReleased
	numCounters
)

var counterNames = [numCounters]string{"hits", "misses", "bypassed", "drops", "fresh", "released"}

// counters are a cache's effectiveness counters. Each is mirrored into
// the cache's obs scope when the hub was installed at construction;
// the mirrors aggregate over every cache of the process, and bytes_hwm
// tracks the single-cache retained-bytes high-water mark.
type counters struct {
	n               [numCounters]atomic.Uint64
	bytes, bytesHWM atomic.Int64
	obs             [numCounters]*obs.Counter
	obsDroppedBytes *obs.Counter
	obsBytesHWM     *obs.Gauge
}

// init registers the first n counters under scope.
func (c *counters) init(scope string, n int) {
	if sc := obs.Default().Scope(scope); sc != nil {
		for i, name := range counterNames[:n] {
			c.obs[i] = sc.Counter(name)
		}
		c.obsDroppedBytes = sc.Counter("dropped_bytes")
		c.obsBytesHWM = sc.Gauge("bytes_hwm")
	}
}

func (c *counters) inc(i int) {
	c.n[i].Add(1)
	c.obs[i].Inc()
}

// retain accounts cost newly retained bytes.
func (c *counters) retain(cost int64) {
	now := c.bytes.Add(cost)
	for hwm := c.bytesHWM.Load(); now > hwm && !c.bytesHWM.CompareAndSwap(hwm, now); hwm = c.bytesHWM.Load() {
	}
	c.obsBytesHWM.SetMax(now)
}

// drop accounts a Drop that freed freed retained bytes.
func (c *counters) drop(freed int64) {
	c.bytes.Add(-freed)
	c.inc(nDrops)
	c.obsDroppedBytes.Add(freed)
}

// Stats reports cache effectiveness counters. Misses counts keys built
// or interpreted for retention and Hits the reads they served. For the
// scalar Cache, Fresh counts reads of keys the plan did not admit,
// Bypassed admitted reads interpreted fresh (over budget, dropped, or
// beyond the plan) and Released entries freed at their last planned
// read. Bytes is the bytes retained now and BytesHWM their high-water
// mark.
type Stats struct {
	Hits, Misses, Bypassed, Drops, Fresh, Released uint64
	Bytes, BytesHWM                                int64
}

// Stats returns a snapshot of the counters.
func (c *counters) Stats() Stats {
	return Stats{
		Hits: c.n[nHits].Load(), Misses: c.n[nMisses].Load(), Bypassed: c.n[nBypassed].Load(),
		Drops: c.n[nDrops].Load(), Fresh: c.n[nFresh].Load(), Released: c.n[nReleased].Load(),
		Bytes: c.bytes.Load(), BytesHWM: c.bytesHWM.Load(),
	}
}

// key identifies one trace of a service. The stack base is implied by
// tid (all chip-level studies lay out batch 0's stacks from
// alloc.StackRegion) but is keyed explicitly so a caller with an
// unusual layout degrades to extra reads, never to a wrong trace.
type key struct {
	api       string
	args      string // req.Args packed little-endian
	seed      int64
	stackBase uint64
	tid       int32
	lineBytes int32
	banks     int32
	policy    alloc.Policy
}

// packArgs encodes an argument vector into a comparable string without
// retaining the caller's slice.
func packArgs(args []uint64) string {
	buf := make([]byte, 8*len(args))
	for i, a := range args {
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(a >> (8 * b))
		}
	}
	return string(buf)
}

// Plan collects the trace reads of one service's cells before any of
// them runs, cell by cell, each cell's reads in its read-position
// order. Each distinct key gets a ticket. Not safe for concurrent use.
type Plan struct {
	ids   map[key]int32
	reads []int32   // planned reads per ticket
	seeds []int64   // request seed per ticket
	cells [][]int32 // each cell's tickets by read position; -1 for none
	// shared reports whether the cell being planned shares a batch
	// cache; built maps each batch key such a cell planned to its
	// tickets.
	shared bool
	built  map[string][]int32
	key    []byte
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{ids: map[key]int32{}, built: map[string][]int32{}} }

// Cell starts planning the next cell. shared reports whether the cell
// shares its service's batch cache, which builds each batch key once.
func (p *Plan) Cell(shared bool) {
	p.cells = append(p.cells, nil)
	p.shared = shared
}

// Read plans the cell's next read: req at batch position tid with the
// given stack base and heap-allocator geometry. A read the cell will
// not make (want false) holds its position with no ticket.
func (p *Plan) Read(want bool, req *uservices.Request, tid int, stackBase uint64, policy alloc.Policy, lineBytes, banks int) {
	id := int32(-1)
	if want {
		k := key{req.API, packArgs(req.Args), req.Seed, stackBase, int32(tid), int32(lineBytes), int32(banks), policy}
		var ok bool
		if id, ok = p.ids[k]; !ok {
			id = int32(len(p.reads))
			p.ids[k] = id
			p.reads = append(p.reads, 0)
			p.seeds = append(p.seeds, req.Seed)
		}
		p.reads[id]++
	}
	c := &p.cells[len(p.cells)-1]
	*c = append(*c, id)
}

// Batch plans the reads of one batch build, thread t of reqs at batch
// 0's stack t. In a shared cell, a batch whose key (appended by key)
// an earlier shared cell planned reuses that build's tickets instead of
// adding reads.
func (p *Plan) Batch(want bool, reqs []uservices.Request, policy alloc.Policy, lineBytes, banks int, key func([]byte) []byte) {
	c := &p.cells[len(p.cells)-1]
	start := len(*c)
	if p.shared && want {
		p.key = key(p.key[:0])
		if t, ok := p.built[string(p.key)]; ok {
			*c = append(*c, t...)
			return
		}
	}
	sg := alloc.NewStackGroup(0, len(reqs), false)
	for t := range reqs {
		p.Read(want, &reqs[t], t, sg.StackBase(t), policy, lineBytes, banks)
	}
	if p.shared && want {
		p.built[string(p.key)] = (*c)[start:len(*c):len(*c)]
	}
}

// entry is one ticket's slot. Only tickets with two or more planned
// reads are admitted (planned > 0); left counts their reads still to
// come and drops to zero at the last one, on Drop, or when the trace
// did not fit the budget — after which readers interpret fresh.
type entry struct {
	mu      sync.Mutex
	planned int32
	left    int32
	filled  bool
	ops     []isa.TraceOp
	cost    int64 // retained bytes
}

// Cache serves one service's planned reads for the duration of one
// sweep. It is safe for concurrent use.
type Cache struct {
	counters
	budget  *Budget
	entries []entry
	cells   [][]int32
	seeds   *seedrng.Table
	gone    atomic.Bool
}

// NewCache builds the cache p calls for, drawing on budget (nil for an
// unbounded cache), and admits the keys with two or more planned
// reads. Every key is then interpreted once — an admitted key by its
// first reader, any other by its only one — so the cache's seed table
// records the requests interpreted under two or more keys.
func NewCache(p *Plan, budget *Budget) *Cache {
	c := &Cache{budget: budget, entries: make([]entry, len(p.reads)), cells: p.cells}
	keys := make(map[int64]int, len(p.seeds))
	var seeds []int64
	for id, n := range p.reads {
		if n >= 2 {
			c.entries[id].planned, c.entries[id].left = n, n
		}
		if keys[p.seeds[id]]++; keys[p.seeds[id]] == 2 {
			seeds = append(seeds, p.seeds[id])
		}
	}
	c.seeds = seedrng.NewTable(seeds)
	c.init("trace.cache", numCounters)
	return c
}

// Reads is one planned cell's view of its service's cache.
type Reads struct {
	c       *Cache
	tickets []int32
}

// Reads returns the view of the plan's cell-th cell, counting from 0.
func (c *Cache) Reads(cell int) *Reads { return &Reads{c: c, tickets: c.cells[cell]} }

// Drop releases the cache's entries and returns their bytes to the
// budget; bytes it frees were retained past their last planned read.
// Later reads interpret fresh. Safe to call concurrently with reads;
// calls after the first do nothing.
func (c *Cache) Drop() {
	if c == nil || c.gone.Swap(true) {
		return
	}
	var freed int64
	for i := range c.entries {
		e := &c.entries[i]
		e.mu.Lock()
		freed += e.cost
		e.ops, e.cost, e.left = nil, 0, 0
		e.mu.Unlock()
	}
	c.budget.release(freed)
	c.drop(freed)
}

// read serves one planned read of admitted entry e, interpreting with
// in when e has no trace to give.
func (c *Cache) read(e *entry, in *Interp, req *uservices.Request, tid int, stackBase uint64, policy alloc.Policy, lineBytes, banks int) ([]isa.TraceOp, error) {
	e.mu.Lock()
	if e.left == 0 {
		e.mu.Unlock()
		c.inc(nBypassed)
		return in.fresh(req, tid, stackBase, policy, lineBytes, banks)
	}
	if e.filled {
		ops := e.ops
		if e.left--; e.left == 0 {
			c.budget.release(e.cost)
			c.bytes.Add(-e.cost)
			e.ops, e.cost = nil, 0
			c.inc(nReleased)
		}
		e.mu.Unlock()
		c.inc(nHits)
		return ops, nil
	}
	// First reader: interpret into the slot's buffer under the entry
	// lock (concurrent readers of the key wait rather than repeat the
	// work) and retain an exact-size copy for the rest.
	defer e.mu.Unlock()
	ops, err := in.fresh(req, tid, stackBase, policy, lineBytes, banks)
	if err != nil {
		return nil, err
	}
	c.inc(nMisses)
	e.left--
	if cost := traceOpBytes * int64(len(ops)); c.budget.reserve(cost) {
		e.ops, e.cost, e.filled = append([]isa.TraceOp(nil), ops...), cost, true
		c.retain(cost)
	} else {
		e.left = 0
	}
	return ops, nil
}

// Interp interprets one prep slot's scalar traces. Fresh traces are
// written into buffers the Interp owns, one per batch thread, which the
// slot's next read at that thread overwrites; planned shared reads are
// served read-only from the cache. One isa context and one seed source
// serve every request. Not safe for concurrent use: each prep slot owns
// one.
type Interp struct {
	svc    *uservices.Service
	reads  *Reads
	ctx    isa.Ctx
	bufs   [][]isa.TraceOp
	traces [][]isa.TraceOp
}

// NewInterp returns an interpreter for svc serving a planned cell's
// reads (nil interprets every read fresh).
func NewInterp(svc *uservices.Service, reads *Reads) *Interp {
	in := &Interp{svc: svc, reads: reads}
	var tab *seedrng.Table
	if reads != nil {
		tab = reads.c.seeds
	}
	in.ctx.Rand = rand.New(seedrng.NewSource(tab, 0))
	return in
}

// Trace returns the trace of the cell's read at position pos: req at
// batch position tid with the given stack base and heap-allocator
// geometry. The slice is read-only; a fresh one stays valid until the
// Interp's next read at tid.
func (in *Interp) Trace(pos int, req *uservices.Request, tid int, stackBase uint64, policy alloc.Policy, lineBytes, banks int) ([]isa.TraceOp, error) {
	if r := in.reads; r != nil {
		if pos < len(r.tickets) && r.tickets[pos] >= 0 {
			if e := &r.c.entries[r.tickets[pos]]; e.planned > 0 {
				return r.c.read(e, in, req, tid, stackBase, policy, lineBytes, banks)
			}
		}
		r.c.inc(nFresh)
	}
	return in.fresh(req, tid, stackBase, policy, lineBytes, banks)
}

// Batch traces a batch whose first request is the cell's read at
// position pos, with per-thread stacks and arenas, mirroring
// uservices.Service.TraceBatch. The returned slice is the Interp's,
// valid until its next Batch.
func (in *Interp) Batch(pos int, reqs []uservices.Request, sg *alloc.StackGroup, policy alloc.Policy, lineBytes, banks int) ([][]isa.TraceOp, error) {
	in.traces = in.traces[:0]
	for t := range reqs {
		tr, err := in.Trace(pos+t, &reqs[t], t, sg.StackBase(t), policy, lineBytes, banks)
		if err != nil {
			return nil, err
		}
		in.traces = append(in.traces, tr)
	}
	return in.traces, nil
}

// fresh interprets req exactly like uservices.Service.Trace with a
// fresh arena, into the buffer of thread tid.
func (in *Interp) fresh(req *uservices.Request, tid int, stackBase uint64, policy alloc.Policy, lineBytes, banks int) ([]isa.TraceOp, error) {
	for len(in.bufs) <= tid {
		in.bufs = append(in.bufs, nil)
	}
	ctx := &in.ctx
	ctx.Arg, ctx.StackBase, ctx.TID = req.Args, stackBase, tid
	ctx.Heap = alloc.NewArena(tid, policy, lineBytes, banks)
	ctx.Rand.Seed(req.Seed)
	clear(ctx.Slots)
	ops, err := isa.ExecuteBuf(in.svc.Program(req.API), ctx, 0, in.bufs[tid])
	if err == nil {
		in.bufs[tid] = ops
	}
	return ops, err
}
