// Worker-pool sweep runner. Every paper study is a grid of independent
// (service, architecture, Options) cells — each cell builds its own
// mem.System, pipeline.Core and request stream — so the sweeps fan out
// over a bounded pool of goroutines. Results are aggregated in input
// order regardless of completion order, which keeps every figure and
// CSV byte-identical to the sequential path.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"simr/internal/batch"
	"simr/internal/sample"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// DefaultWorkers is the worker count of an Env with Workers <= 0: one
// per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Env is the run environment every sweep entry point takes: the
// context that cancels the sweep, how many cells run at once, how deep
// each cell's prep pipeline looks ahead and how its timing simulation
// samples. The zero value runs one worker per CPU with sequential prep,
// full (unsampled) timing and no cancellation. Results are
// byte-identical at any Workers and Lookahead.
type Env struct {
	// Ctx cancels the sweep at the next cell boundary (nil = never), so
	// a signal aborts it without truncating output mid-row.
	Ctx context.Context
	// Workers bounds the cells run at once: <= 0 selects
	// DefaultWorkers, 1 runs them inline with no goroutines.
	Workers int
	// Lookahead is each cell's prep-pipeline depth in batches (see
	// Options.PrepLookahead): PrepAuto derives it from the CPUs the
	// sweep's workers leave spare.
	Lookahead int
	// Sample is the sampled-simulation regime copied into every chip
	// cell's Options.Sample; the zero value times every unit.
	Sample sample.Config

	// freshTraces and freshBatches turn off the sweep's scalar-trace
	// cache (and request-stream sharing) and its batch-stream cache:
	// the determinism tests compare cached sweeps against these
	// fresh-preparation oracles byte for byte.
	freshTraces, freshBatches bool
}

// err returns the error that cancelled the environment's context, or
// nil while the sweep may go on.
func (e Env) err() error {
	if e.Ctx == nil {
		return nil
	}
	return e.Ctx.Err()
}

// RunCells evaluates fn(0..n-1) on env.Workers workers and returns
// the results in input order. On error the lowest-index error among
// completed cells is returned and remaining cells are abandoned; once
// env.Ctx is done no further cell starts and RunCells returns its
// error.
func RunCells[T any](n int, env Env, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := env.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	po := cellsProbe(workers)
	start := po.clock()
	defer po.finish(start)
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := env.err(); err != nil {
				return nil, err
			}
			t0 := po.clock()
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			po.cell(0, t0)
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64
		stop   atomic.Bool
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				t0 := po.clock()
				var v T
				err := env.err()
				if err == nil {
					v, err = fn(i)
				}
				if err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				po.cell(w, t0)
				out[i] = v
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}

// genRequests regenerates a service's request stream from the study
// seed. Regeneration from the same seed is deterministic, so a cell
// sees the exact stream the sequential loop produced whether it
// generates its own copy or shares one through sweepCaches.
func genRequests(svc *uservices.Service, requests int, seed int64) []uservices.Request {
	return svc.Generate(rand.New(rand.NewSource(seed)), requests)
}

// studyRequests returns the request-stream generator of a study that
// runs requests requests per service from seed.
func studyRequests(requests int, seed int64) func(*uservices.Service) []uservices.Request {
	return func(svc *uservices.Service) []uservices.Request { return genRequests(svc, requests, seed) }
}

// checkRequests rejects a non-positive per-service request count: no
// request means no measurement, only NaN ratios.
func checkRequests(requests int) error {
	if requests <= 0 {
		return fmt.Errorf("core: requests per service must be positive, got %d", requests)
	}
	return nil
}

// prepCell places one cell of a sweep: the index of the service it
// runs, its prep signature (nil when the cell never consults the batch
// cache; see prepSignature) and plan, which enumerates the cell's
// scalar-trace reads of the service's request stream (see planRun). A
// cell with no plan reads every trace fresh.
type prepCell struct {
	svc  int
	sig  []byte
	plan func(p *trace.Plan, reqs []uservices.Request)
}

// sweepCaches owns each service's shared request stream and
// trace.Cache, plus a trace.BatchCache for each service whose cells
// share a prep signature, all drawing on a single byte budget. A
// service's stream and trace cache are built by its first cell to
// start, from the plans of all its cells; a per-service countdown drops
// both caches — returning their bytes to the budget — and lets go of
// them as soon as the service's last cell finishes, so long sweeps
// never hold every service's traces and streams at once.
//
// Admission follows from the cell plan. A cell gets its service's
// batch cache only when another cell of that service has the same prep
// signature: keys are collision-free and carry every signature field,
// so a cell with a unique signature could only ever miss and pay for a
// retained copy nobody reads. Likewise the trace cache retains only
// traces the plan reads at least twice; the rest are interpreted into
// the reading slot's own buffers.
type sweepCaches struct {
	env    Env
	svcs   []*uservices.Service
	gen    func(*uservices.Service) []uservices.Request
	cells  []prepCell
	ord    []int // cell i is its service's ord[i]-th cell
	shared []bool
	budget *trace.Budget
	state  []svcState
}

// svcState is one service's share of a sweep.
type svcState struct {
	once    sync.Once
	reqs    []uservices.Request
	traces  *trace.Cache
	batches *trace.BatchCache
	left    atomic.Int32
}

// newSweepCaches builds the per-service caches for a sweep of the
// given cells run in env; gen produces a service's request stream.
func newSweepCaches(env Env, svcs []*uservices.Service, gen func(*uservices.Service) []uservices.Request, cells []prepCell) *sweepCaches {
	sw := &sweepCaches{
		env:    env,
		svcs:   svcs,
		gen:    gen,
		cells:  cells,
		ord:    make([]int, len(cells)),
		shared: make([]bool, len(cells)),
		budget: trace.NewBudget(0),
		state:  make([]svcState, len(svcs)),
	}
	sigs := make([]map[string]int, len(svcs))
	for i, c := range cells {
		sw.ord[i] = int(sw.state[c.svc].left.Add(1)) - 1
		if c.sig != nil {
			if sigs[c.svc] == nil {
				sigs[c.svc] = map[string]int{}
			}
			sigs[c.svc][string(c.sig)]++
		}
	}
	for i, c := range cells {
		if c.sig == nil || sigs[c.svc][string(c.sig)] < 2 {
			continue
		}
		sw.shared[i] = true
		if sw.state[c.svc].batches == nil {
			sw.state[c.svc].batches = trace.NewBatchCache(sw.budget)
		}
	}
	return sw
}

// batchCache returns the batch-stream cache cell i may consult: its
// service's, when the plan admits the cell, else nil (which prepares
// every batch fresh).
func (sw *sweepCaches) batchCache(i int) *trace.BatchCache {
	if sw.env.freshBatches || !sw.shared[i] {
		return nil
	}
	return sw.state[sw.cells[i].svc].batches
}

// cell returns cell i's environment, generating its service's request
// stream and planning the service's trace cache on first use. The
// stream is read-only for all cells.
func (sw *sweepCaches) cell(i int) cellEnv {
	s := sw.cells[i].svc
	e := cellEnv{svc: sw.svcs[s], batches: sw.batchCache(i)}
	if sw.env.freshTraces {
		e.reqs = sw.gen(e.svc)
		return e
	}
	st := &sw.state[s]
	st.once.Do(func() {
		st.reqs = sw.gen(e.svc)
		p := trace.NewPlan()
		for j, c := range sw.cells {
			if c.svc != s {
				continue
			}
			p.Cell(sw.batchCache(j) != nil)
			if c.plan != nil {
				c.plan(p, st.reqs)
			}
		}
		st.traces = trace.NewCache(p, sw.budget)
	})
	e.reqs, e.traces = st.reqs, st.traces.Reads(sw.ord[i])
	return e
}

// done marks one of service s's cells finished; the last one drops the
// service's caches and lets go of them.
func (sw *sweepCaches) done(s int) {
	st := &sw.state[s]
	if st.left.Add(-1) != 0 {
		return
	}
	st.traces.Drop()
	st.batches.Drop()
	st.traces = nil
}

// abort drops every service's caches. sweepRun calls it on the sweep's
// error path: cells abandoned by RunCells never call done, so without
// the drain a failed sweep would strand each undropped cache's bytes
// against the shared trace.Budget for as long as the sweep's results
// stay reachable. Drop is idempotent and nil-safe.
func (sw *sweepCaches) abort() {
	for s := range sw.state {
		sw.state[s].traces.Drop()
		sw.state[s].batches.Drop()
	}
}

// cellEnv is what sweepRun hands one cell: its service, the service's
// shared request stream and the caches the cell may consult.
type cellEnv struct {
	svc     *uservices.Service
	reqs    []uservices.Request
	traces  *trace.Reads
	batches *trace.BatchCache
}

// sweepRun evaluates fn for every cell of sw's plan in the sweep's
// environment (see RunCells) and returns the results in plan order.
func sweepRun[T any](sw *sweepCaches, fn func(i int, e cellEnv) (T, error)) ([]T, error) {
	out, err := RunCells(len(sw.cells), sw.env, func(i int) (T, error) {
		defer sw.done(sw.cells[i].svc)
		return fn(i, sw.cell(i))
	})
	if err != nil {
		sw.abort()
		return nil, err
	}
	return out, nil
}

// serviceCell is one RunService call of a sweep: arch and opts applied
// to service svc. runServiceCells fills in the caches, lookahead and
// sampling.
type serviceCell struct {
	svc  int
	arch Arch
	opts Options
}

// runServiceCells runs the cells in env over the services' shared
// request streams, admitting each cell to its service's batch cache by
// prep signature, and returns the results in cell order.
func runServiceCells(svcs []*uservices.Service, gen func(*uservices.Service) []uservices.Request, cells []serviceCell, env Env) ([]*Result, error) {
	la := env.prepBudget(len(cells))
	plan := make([]prepCell, len(cells))
	for i := range cells {
		c := &cells[i]
		c.opts.Sample, c.opts.PrepLookahead = env.Sample, la
		svc := svcs[c.svc]
		plan[i] = prepCell{svc: c.svc, sig: prepSignature(c.arch, svc, &c.opts),
			plan: func(p *trace.Plan, reqs []uservices.Request) { planRun(p, c.arch, svc, reqs, &c.opts) }}
	}
	return sweepRun(newSweepCaches(env, svcs, gen, plan), func(i int, e cellEnv) (*Result, error) {
		opts := cells[i].opts
		opts.Traces, opts.BatchStreams = e.traces, e.batches
		return RunService(cells[i].arch, e.svc, e.reqs, opts)
	})
}

// ChipStudy runs the chip-level comparison behind Figures 10, 14, 19,
// 20 and 21 in env: one cell per (service, architecture).
// withGPU additionally runs the Ampere-like GPU model (§V-A3). Rows are
// per service and independent, so a subset's rows are byte-identical
// to the same services' rows in a full-suite run; the distributed
// worker tier runs one-service tasks through it.
func ChipStudy(svcs []*uservices.Service, requests int, seed int64, withGPU bool, env Env) ([]ChipRow, error) {
	if err := checkRequests(requests); err != nil {
		return nil, err
	}
	arches := []Arch{ArchCPU, ArchSMT8, ArchRPU}
	if withGPU {
		arches = append(arches, ArchGPU)
	}
	na := len(arches)
	cells := make([]serviceCell, 0, len(svcs)*na)
	for s := range svcs {
		for _, a := range arches {
			cells = append(cells, serviceCell{svc: s, arch: a, opts: DefaultOptions()})
		}
	}
	res, err := runServiceCells(svcs, studyRequests(requests, seed), cells, env)
	if err != nil {
		return nil, err
	}
	rows := make([]ChipRow, len(svcs))
	for s, svc := range svcs {
		row := ChipRow{Service: svc.Name, CPU: res[s*na], SMT: res[s*na+1], RPU: res[s*na+2]}
		if withGPU {
			row.GPU = res[s*na+3]
		}
		rows[s] = row
	}
	return rows, nil
}

// EfficiencyStudy reproduces Figures 4 and 11 in env: SIMT
// control efficiency per service under naive, per-API and
// per-API+argument-size batching (MinSP-PC), plus the ideal
// stack-based IPDOM reference, at batch 32. One cell per (service,
// policy variant).
func EfficiencyStudy(svcs []*uservices.Service, requests int, seed int64, env Env) ([]EffRow, error) {
	if err := checkRequests(requests); err != nil {
		return nil, err
	}
	variants := []struct {
		policy batch.Policy
		ipdom  bool
	}{
		{batch.Naive, false},
		{batch.PerAPI, false},
		{batch.PerAPIArgSize, false},
		{batch.PerAPIArgSize, true},
	}
	nv := len(variants)
	plan := make([]prepCell, 0, len(svcs)*nv)
	for s := range svcs {
		for _, v := range variants {
			plan = append(plan, prepCell{svc: s, sig: effKey(nil, nil, effBatch, v.ipdom),
				plan: func(p *trace.Plan, reqs []uservices.Request) { planEff(p, reqs, v.policy, v.ipdom) }})
		}
	}
	sw := newSweepCaches(env, svcs, studyRequests(requests, seed), plan)
	cells, err := sweepRun(sw, func(i int, e cellEnv) (float64, error) {
		v := variants[i%nv]
		return efficiencyOf(e.svc, e.reqs, effBatch, v.policy, v.ipdom, e.traces, e.batches)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]EffRow, len(svcs))
	for s, svc := range svcs {
		rows[s] = EffRow{
			Service:     svc.Name,
			Naive:       cells[s*nv],
			PerAPI:      cells[s*nv+1],
			PerArg:      cells[s*nv+2],
			PerArgIPDOM: cells[s*nv+3],
		}
	}
	return rows, nil
}

// MPKIStudy reproduces Figure 15 in env: L1 MPKI of the
// single-threaded CPU (64 KB L1) vs the RPU (256 KB L1) at batch sizes
// 32/16/8/4. One cell per (service, configuration).
func MPKIStudy(svcs []*uservices.Service, requests int, seed int64, env Env) ([]MPKIRow, error) {
	if err := checkRequests(requests); err != nil {
		return nil, err
	}
	sizes := []int{32, 16, 8, 4}
	nc := 1 + len(sizes) // CPU + one per batch size
	cells := make([]serviceCell, 0, len(svcs)*nc)
	for s := range svcs {
		cells = append(cells, serviceCell{svc: s, arch: ArchCPU, opts: DefaultOptions()})
		for _, size := range sizes {
			opts := DefaultOptions()
			opts.BatchSize = size
			cells = append(cells, serviceCell{svc: s, arch: ArchRPU, opts: opts})
		}
	}
	res, err := runServiceCells(svcs, studyRequests(requests, seed), cells, env)
	if err != nil {
		return nil, err
	}
	rows := make([]MPKIRow, len(svcs))
	for s, svc := range svcs {
		row := MPKIRow{Service: svc.Name, CPU: res[s*nc].L1MPKI(), RPU: map[int]float64{}}
		for k, size := range sizes {
			row.RPU[size] = res[s*nc+1+k].L1MPKI()
		}
		rows[s] = row
	}
	return rows, nil
}

// BatchSweepRow is one RPU batch-size point of a batch-tuning sweep.
type BatchSweepRow struct {
	Size int
	Res  *Result
}

// BatchSweep runs the CPU baseline plus an RPU run per batch size over
// the same requests in env (the §III-B3 tuning space).
func BatchSweep(svc *uservices.Service, reqs []uservices.Request, sizes []int, env Env) (*Result, []BatchSweepRow, error) {
	cells := []serviceCell{{arch: ArchCPU, opts: DefaultOptions()}}
	for _, size := range sizes {
		opts := DefaultOptions()
		opts.BatchSize = size
		cells = append(cells, serviceCell{arch: ArchRPU, opts: opts})
	}
	gen := func(*uservices.Service) []uservices.Request { return reqs }
	res, err := runServiceCells([]*uservices.Service{svc}, gen, cells, env)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]BatchSweepRow, len(sizes))
	for k, size := range sizes {
		rows[k] = BatchSweepRow{Size: size, Res: res[1+k]}
	}
	return res[0], rows, nil
}

// MultiBatchRow is one service's §III-A multi-batch interleaving
// measurement.
type MultiBatchRow struct {
	Service string
	Res     *MultiBatchResult
}

// MultiBatchSweep runs MultiBatchStudy for every given service in env
// (two tuned-size batches per service).
func MultiBatchSweep(svcs []*uservices.Service, seed int64, env Env) ([]MultiBatchRow, error) {
	// One cell per service, whose two batches read distinct requests:
	// nothing is read twice, so the cells plan nothing.
	plan := make([]prepCell, len(svcs))
	for s := range plan {
		plan[s].svc = s
	}
	gen := func(svc *uservices.Service) []uservices.Request { return genRequests(svc, 2*svc.TunedBatch, seed) }
	cells, err := sweepRun(newSweepCaches(env, svcs, gen, plan), func(_ int, e cellEnv) (*MultiBatchResult, error) {
		opts := DefaultOptions()
		opts.Traces = e.traces
		return MultiBatchStudy(e.svc, e.reqs, opts)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]MultiBatchRow, len(svcs))
	for i, svc := range svcs {
		rows[i] = MultiBatchRow{Service: svc.Name, Res: cells[i]}
	}
	return rows, nil
}
