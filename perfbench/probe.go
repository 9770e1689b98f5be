package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/core"
	"simr/internal/isa"
	"simr/internal/queuesim"
	"simr/internal/simt"
	"simr/internal/uservices"
)

// tracer records spans from the benchmark's own calls into the layers'
// public functions and writes them as a Chrome-trace JSON array.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name         string
	start, end   time.Time
	id, parent   int
	cell, worker int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn inside a span and returns the span's duration; fn gets the
// span's id to parent its children.
func (t *tracer) do(name string, parent, cell, worker int, fn func(id int)) time.Duration {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, cell: cell, worker: worker})
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].start, t.spans[id-1].end = start, end
	t.mu.Unlock()
	return end.Sub(start)
}

// chromeEvent is one Trace Event Format complete event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (t *tracer) writeJSON(path string) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{Name: s.name, Cat: "perfbench", Ph: "X",
			TS: us(s.start.Sub(t.epoch)), Dur: us(s.end.Sub(s.start)), PID: 1, TID: s.worker,
			Args: map[string]int{"id": s.id, "parent": s.parent, "cell": s.cell}}
	}
	raw, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// forCells runs fn(cell, worker) for every cell on the benchmark's two
// workers and returns the first error.
func forCells(n int, fn func(cell, worker int) error) error {
	errs := make([]error, n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := range next {
				errs[c] = fn(c, w)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupTime returns the median over setupSamples batches of the mean
// set-up time per repetition. Each batch repeats set-up often enough to
// span about setupBatch, so the 20 µs queuesim set-ups are timed as
// steadily as the chip studies' 5 ms one.
func setupTime(w *workload, seed int64) (float64, error) {
	timed := func() (time.Duration, error) {
		start := time.Now()
		err := w.setup(seed)
		return time.Since(start), err
	}
	first, err := timed()
	if err != nil {
		return 0, err
	}
	reps := int(setupBatch/(first+1)) + 1
	samples := make([]float64, setupSamples)
	for i := range samples {
		runtime.GC() // every batch starts from the same heap state
		var sum time.Duration
		for r := 0; r < reps; r++ {
			d, err := timed()
			if err != nil {
				return 0, err
			}
			sum += d
		}
		samples[i] = sum.Seconds() / float64(reps)
	}
	return median(samples), nil
}

const (
	setupSamples = 11
	setupBatch   = 40 * time.Millisecond
)

// setupChip is the chip studies' work before the first cell: the suite
// and every service's request stream.
func setupChip(seed int64) error {
	for _, svc := range uservices.NewSuite().Services {
		svc.Generate(rand.New(rand.NewSource(seed)), chipRequests)
	}
	return nil
}

// setupTail and setupFig22 set up one queuesim engine: the first load
// point with a 1 µs horizon, which admits no arrival.
func setupTail(seed int64) error {
	cfg := tailConfig(seed, modeCfgs[0], 70000*tailScale/tailPoints)
	cfg.Seconds, cfg.Warmup = 1e-6, 0
	_, err := queuesim.RunTail(cfg)
	return err
}

func setupFig22(seed int64) error {
	cfg := fig22Config(seed, modeCfgs[0], fig22Max/fig22Points)
	cfg.Seconds, cfg.Warmup = 1e-6, 0
	queuesim.Run(cfg)
	return nil
}

// modeCfg is one syssim mode's switches, in the CLI's print order.
type modeCfg struct{ rpu, split bool }

var modeCfgs = []modeCfg{{false, false}, {true, false}, {true, true}}

// tailConfig mirrors the tail-policy CLI flags for one load point.
func tailConfig(seed int64, m modeCfg, qps float64) queuesim.TailConfig {
	cfg := queuesim.TailConfig{Config: queuesim.DefaultConfig(), Scale: tailScale,
		Arrivals: queuesim.ArrivalConfig{Process: queuesim.ParseArrivalProcess("poisson"), ThinkMs: 100},
		Policy:   queuesim.PolicyConfig{TimeoutMs: 100, MaxRetries: 1, BackoffMs: 1, HedgeMs: 50, QueueCap: 10000}}
	cfg.QPS = qps
	cfg.Seconds = tailSeconds
	cfg.Warmup = tailSeconds / 4.0
	cfg.Seed = seed
	cfg.RPU, cfg.Split = m.rpu, m.split
	return cfg
}

// fig22Config mirrors the closure-engine Figure 22 CLI for one point.
func fig22Config(seed int64, m modeCfg, qps float64) queuesim.Config {
	cfg := queuesim.DefaultConfig()
	cfg.QPS = qps
	cfg.Seed = seed
	cfg.RPU, cfg.Split = m.rpu, m.split
	return cfg
}

// layerStats accumulates what the probe measures; durations are summed
// over both workers (host seconds spent in the layer).
type layerStats struct {
	mu sync.Mutex

	isaS, formS, mergeS, cellS, energyS           time.Duration
	traceOps, batches, batchOps, scalarOps, lanes float64
	uops, cycles, mispredicts, flushed            float64
	l1Acc, l1Miss, bankConf, dram                 float64
	dynamicJ, totalJ                              float64

	tailPoints                                []float64
	events, cancelled, inflightHWM, completed float64
	offeredWork                               float64
	tailS                                     time.Duration
	closurePoints                             []float64
	closureCompleted                          float64
}

// probeChip replays the RPU cell of every service with spans around
// batch formation, per-batch trace interpretation and SIMT merge, the
// whole core.RunService call and the energy pass.
func probeChip(t *tracer, seed int64, _ string, ls *layerStats) error {
	svcs := uservices.NewSuite().Services
	banks := core.MemConfig(core.ArchRPU).L1.Banks
	freq := core.PipelineConfig(core.ArchRPU).FreqGHz
	model := core.EnergyModel(core.ArchRPU)
	return forCells(len(svcs), func(c, w int) error {
		svc := svcs[c]
		opts := core.DefaultOptions()
		opts.PrepLookahead = 0 // what the CLIs resolve at two workers on two CPUs
		size := svc.TunedBatch
		var err error
		t.do("cell "+svc.Name, 0, c, w, func(cell int) {
			reqs := svc.Generate(rand.New(rand.NewSource(seed)), chipRequests)
			var batches []batch.Batch
			form := t.do("batch.Form", cell, c, w, func(int) { batches = batch.Form(reqs, size, opts.Policy) })
			var isaD, mergeD time.Duration
			var ops, bops, sops float64
			var sc simt.Scratch
			for i := range batches {
				b := &batches[i]
				sg := alloc.NewStackGroup(0, len(b.Requests), opts.StackInterleave)
				var traces [][]isa.TraceOp
				isaD += t.do("isa.TraceBatch", cell, c, w, func(int) {
					traces, err = svc.TraceBatch(b.Requests, sg, opts.AllocPolicy, allocLineBytes, banks)
				})
				if err != nil {
					return
				}
				for _, tr := range traces {
					ops += float64(len(tr))
				}
				var merged *simt.Result
				mergeD += t.do("simt.RunMinSPPCWith", cell, c, w, func(int) {
					merged, err = simt.RunMinSPPCWith(&sc, traces, size, opts.Spin)
				})
				if err != nil {
					return
				}
				bops += float64(len(merged.Ops))
				sops += float64(merged.ScalarOps)
			}
			var res *core.Result
			cellD := t.do("core.RunService", cell, c, w, func(int) {
				res, err = core.RunService(core.ArchRPU, svc, reqs, opts)
			})
			if err != nil {
				return
			}
			energyD := t.do("energy.Compute", cell, c, w, func(int) { model.Compute(&res.Stats, freq) })
			st := &res.Stats
			ls.mu.Lock()
			defer ls.mu.Unlock()
			ls.isaS += isaD
			ls.formS += form
			ls.mergeS += mergeD
			ls.cellS += cellD
			ls.energyS += energyD
			ls.traceOps += ops
			ls.batches += float64(len(batches))
			ls.batchOps += bops
			ls.scalarOps += sops
			ls.lanes += bops * float64(size)
			ls.uops += float64(st.Uops)
			ls.cycles += float64(st.Cycles)
			ls.mispredicts += float64(st.Mispredicts)
			ls.flushed += float64(st.FlushedLanes)
			ls.l1Acc += float64(st.Mem.L1.Accesses)
			ls.l1Miss += float64(st.Mem.L1.Misses)
			ls.bankConf += float64(st.Mem.L1.BankConflicts)
			ls.dram += float64(st.Mem.DRAMAccesses)
			ls.dynamicJ += res.Energy.Dynamic()
			ls.totalJ += res.Energy.Total()
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", svc.Name, err)
		}
		return nil
	})
}

// allocLineBytes is the allocator granule core passes to TraceBatch
// (core's unexported lineBytes).
const allocLineBytes = 32

// probeTail reruns every tail-policy load point through
// queuesim.RunTail and cross-checks each point's printed row.
func probeTail(t *tracer, seed int64, out string, ls *layerStats) error {
	cli, err := parseTail(out)
	if err != nil {
		return err
	}
	return forCells(len(modeCfgs)*tailPoints, func(c, w int) error {
		mi, p := c/tailPoints, c%tailPoints
		cfg := tailConfig(seed, modeCfgs[mi], 70000*tailScale*float64(p+1)/tailPoints)
		var m *queuesim.TailMetrics
		var err error
		d := t.do("queuesim.RunTail", 0, c, w, func(int) { m, err = queuesim.RunTail(cfg) })
		if err != nil {
			return err
		}
		row := cli[modes[mi]][p]
		if got := fmt.Sprintf("%.0f %.1f", m.Throughput(), float64(m.Events)/1e6); got != fmt.Sprintf("%.0f %.1f", row[tailDone], row[tailMev]) {
			return fmt.Errorf("probe %s at %v QPS: done/s and Mev %s differ from the CLI row %v", modes[mi], cfg.QPS, got, row)
		}
		ls.mu.Lock()
		defer ls.mu.Unlock()
		ls.tailPoints = append(ls.tailPoints, d.Seconds())
		ls.tailS += d
		ls.events += float64(m.Events)
		ls.cancelled += float64(m.CancelledTimers)
		ls.completed += float64(m.Completed)
		ls.offeredWork += float64(m.Arrived + m.Retried + m.Hedged)
		if h := float64(m.InFlightHWM); h > ls.inflightHWM {
			ls.inflightHWM = h
		}
		return nil
	})
}

// probeFig22 reruns every Figure 22 load point through queuesim.Run and
// cross-checks each point's printed row.
func probeFig22(t *tracer, seed int64, out string, ls *layerStats) error {
	cli, err := parseFig22(out)
	if err != nil {
		return err
	}
	return forCells(len(modeCfgs)*fig22Points, func(c, w int) error {
		mi, p := c/fig22Points, c%fig22Points
		cfg := fig22Config(seed, modeCfgs[mi], fig22Max*float64(p+1)/fig22Points)
		var m *queuesim.Metrics
		d := t.do("queuesim.Run", 0, c, w, func(int) { m = queuesim.Run(cfg) })
		row := cli[modes[mi]][p]
		measured := cfg.Seconds - cfg.Warmup
		if got := fmt.Sprintf("%.0f %.2f", m.Throughput(measured), m.Latency.Percentile(99)); got != fmt.Sprintf("%.0f %.2f", row[f22Done], row[f22P99]) {
			return fmt.Errorf("probe %s at %v QPS: done/s and p99 %s differ from the CLI row %v", modes[mi], cfg.QPS, got, row)
		}
		ls.mu.Lock()
		defer ls.mu.Unlock()
		ls.closurePoints = append(ls.closurePoints, d.Seconds())
		ls.closureCompleted += float64(m.Completed)
		return nil
	})
}
