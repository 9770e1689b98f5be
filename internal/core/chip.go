package core

import (
	"fmt"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/energy"
	"simr/internal/mem"
	"simr/internal/pipeline"
	"simr/internal/sample"
	"simr/internal/simt"
	"simr/internal/stats"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// Options tunes an RPU/GPU run; the zero value (after Defaults) is the
// paper's baseline configuration.
type Options struct {
	// BatchSize overrides the service's tuned batch size (0 = tuned).
	BatchSize int
	// Policy is the batching-server grouping policy.
	Policy batch.Policy
	// AllocPolicy selects the heap allocator.
	AllocPolicy alloc.Policy
	// Lanes overrides the SIMT lane count (0 = config default).
	Lanes int
	// StackInterleave applies the 4-byte stack physical interleave.
	StackInterleave bool
	// MajorityVote enables per-batch majority-voted prediction.
	MajorityVote bool
	// AtomicsAtL3 routes atomics to the shared L3.
	AtomicsAtL3 bool
	// UseIPDOM selects the ideal stack-based reconvergence scheme
	// instead of MinSP-PC.
	UseIPDOM bool
	// Spin enables the livelock mitigation.
	Spin *simt.SpinConfig
	// CPUPrefetch attaches a next-line prefetcher to the scalar CPU's
	// L1 (Table III ablation: prefetchers are ineffective on
	// microservice heaps).
	CPUPrefetch bool
	// Traces optionally supplies the cell's planned reads of the sweep's
	// shared scalar-trace cache (see internal/trace); nil interprets
	// every request fresh. Results are byte-identical either way.
	Traces *trace.Reads
	// BatchStreams optionally supplies the sweep's shared batch-stream
	// cache memoizing the post-merge preparation product (merged uop
	// stream + MCU delta + op counts) of RPU/GPU runs across cells that
	// differ only in timing-model knobs; nil prepares every batch
	// fresh. The study drivers hand it only to cells whose prep
	// signature another cell shares. Cached streams are cache-owned and
	// read-only. Results are byte-identical either way.
	BatchStreams *trace.BatchCache
	// PrepLookahead bounds how many upcoming batches (or request
	// groups) are prepared — trace fetch, SIMT lock-step merge, uop
	// build — on worker goroutines ahead of the batch the timing core
	// is simulating. 0 runs fully sequentially (the determinism
	// oracle); PrepAuto derives a budget from the CPUs left over by the
	// enclosing sweep. Results are byte-identical at any value; only
	// wall-clock changes.
	PrepLookahead int
	// Sample selects SMARTS-style sampled timing simulation (see
	// internal/sample): every Sample.Period-th unit is fully timed,
	// Sample.Warmup units before each timed one run a functional
	// warmup pass, and the rest are skipped, with aggregate statistics
	// extrapolated under reported confidence intervals. The zero value
	// times every unit; so does Period 1, which runs the sampler and is
	// bit-identical to the unsampled path. The study drivers copy
	// Env.Sample here.
	Sample sample.Config
}

// DefaultOptions is the paper's baseline RPU configuration. Spin points
// at a private copy of simt.DefaultSpin so callers (and concurrent
// runs) can mutate it without affecting the package global or each
// other.
func DefaultOptions() Options {
	spin := simt.DefaultSpin
	return Options{
		Policy:          batch.PerAPIArgSize,
		AllocPolicy:     alloc.PolicySIMR,
		StackInterleave: true,
		MajorityVote:    true,
		AtomicsAtL3:     true,
		Spin:            &spin,
		PrepLookahead:   PrepAuto,
	}
}

// Result is one (architecture, service) chip-level measurement.
type Result struct {
	Arch     Arch
	Service  string
	Requests int
	Batches  int
	// Stats aggregates the pipeline counters over all runs; Stats.Mem
	// sums each run's memory-counter delta, which equals the final
	// cumulative snapshot of the run's memory system.
	Stats pipeline.Stats
	// Energy is the total energy over all requests.
	Energy energy.Breakdown
	// Latency samples one service latency per request, in cycles.
	Latency *stats.Sample
	// SIMTEff is the weighted SIMT control efficiency (1 for scalar).
	// Under sampled simulation it is computed from the timed units
	// only — the same subpopulation Stats extrapolates from — so every
	// Result field describes one consistent sample; full runs time
	// every unit and are unaffected.
	SIMTEff float64
	// FreqGHz converts cycles to seconds.
	FreqGHz float64
	// Sampled carries the sampling estimate when sampled timing
	// simulation skipped work (Period > 1); nil for full runs, so
	// unsampled results are unchanged.
	Sampled *sample.Estimate
}

// AvgLatencySec returns the mean per-request service latency.
func (r *Result) AvgLatencySec() float64 {
	return r.Latency.Mean() / (r.FreqGHz * 1e9)
}

// ReqPerJoule returns the headline energy-efficiency metric.
func (r *Result) ReqPerJoule() float64 {
	j := r.Energy.Total()
	if j == 0 {
		return 0
	}
	return float64(r.Requests) / j
}

// L1AccessesPerRequest returns L1 data accesses per request.
func (r *Result) L1AccessesPerRequest() float64 {
	return stats.Ratio(float64(r.Stats.Mem.L1.Accesses), float64(r.Requests))
}

// L1MPKI returns L1 misses per thousand scalar instructions.
func (r *Result) L1MPKI() float64 {
	return r.Stats.Mem.L1.MPKI(r.Stats.ScalarOps)
}

// batchSize resolves the options' batch size for svc (0 = tuned).
func (o *Options) batchSize(svc *uservices.Service) int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return svc.TunedBatch
}

// batchKey appends the batch-stream key of one RPU/GPU batch to dst:
// reqs lock-stepped at width size under opts, laid out for an L1 of
// banks banks. Batch 0's stack group always starts at StackRegion, so
// the key's stack base is known without laying the group out. Lanes,
// majority voting, atomics placement and frequency are timing-only and
// deliberately absent.
func batchKey(dst []byte, reqs []uservices.Request, size int, opts *Options, banks int) []byte {
	return trace.AppendBatchKey(dst, trace.KeyBatch, reqs, size,
		opts.UseIPDOM, opts.Spin, opts.AllocPolicy, opts.StackInterleave,
		lineBytes, banks, alloc.StackRegion)
}

// prepSignature returns the prep signature of a run of svc on arch
// under opts: its batch key with an empty request list, which holds
// every key field but the requests. Two runs can share a batch stream
// only if their signatures are equal. It is nil for the scalar CPU and
// SMT-8 runs, which never consult the batch cache.
func prepSignature(arch Arch, svc *uservices.Service, opts *Options) []byte {
	if arch != ArchRPU && arch != ArchGPU {
		return nil
	}
	return batchKey(nil, nil, opts.batchSize(svc), opts, MemConfig(arch).L1.Banks)
}

// planRun enumerates into p the scalar-trace reads RunService(arch, svc,
// reqs, *opts) will make, in read-position order: request i for the CPU
// and SMT-8 runs, and the concatenation of the formed batches for
// RPU/GPU. Units the run's sampler skips are never read.
func planRun(p *trace.Plan, arch Arch, svc *uservices.Service, reqs []uservices.Request, opts *Options) {
	cfg := opts.Sample
	switch arch {
	case ArchCPU:
		sg := alloc.NewStackGroup(0, 1, false)
		for i := range reqs {
			p.Read(prepared(cfg, len(reqs), i), &reqs[i], 0, sg.StackBase(0), alloc.PolicyCPU, lineBytes, 1)
		}
	case ArchSMT8:
		sg := alloc.NewStackGroup(0, 8, false)
		groups := (len(reqs) + 7) / 8
		for i := range reqs {
			p.Read(prepared(cfg, groups, i/8), &reqs[i], i%8, sg.StackBase(i%8), alloc.PolicyCPU, lineBytes, 1)
		}
	case ArchRPU, ArchGPU:
		size, banks := opts.batchSize(svc), MemConfig(arch).L1.Banks
		batches := batch.Form(reqs, size, opts.Policy)
		for b, bt := range batches {
			p.Batch(prepared(cfg, len(batches), b), bt.Requests, opts.AllocPolicy, lineBytes, banks,
				func(dst []byte) []byte { return batchKey(dst, bt.Requests, size, opts, banks) })
		}
	}
}

// RunService executes the requests on one core of the architecture and
// returns the aggregated measurement. CPU runs the requests
// sequentially; SMT-8 runs them in groups of 8; RPU/GPU batch them via
// the SIMR-aware server and run them in lock-step.
func RunService(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options) (*Result, error) {
	switch arch {
	case ArchCPU:
		return runScalar(arch, svc, reqs, opts)
	case ArchSMT8:
		return runSMT(arch, svc, reqs, opts)
	case ArchRPU, ArchGPU:
		return runBatched(arch, svc, reqs, opts)
	default:
		return nil, fmt.Errorf("core: invalid arch %v", arch)
	}
}

func newResult(arch Arch, svc *uservices.Service, n int) *Result {
	return &Result{
		Arch:     arch,
		Service:  svc.Name,
		Requests: n,
		Latency:  stats.NewSample(n),
		SIMTEff:  1,
		FreqGHz:  PipelineConfig(arch).FreqGHz,
	}
}

// runScalar models the single-threaded CPU: one worker thread serves
// requests back to back on a warm core, reusing its stack (which is why
// consecutive CPU threads enjoy prefetched shared data, paper §V-A).
// Upcoming requests are traced and uop-converted up to
// opts.PrepLookahead ahead of the one the timing core is running.
func runScalar(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options) (*Result, error) {
	cfg := PipelineConfig(arch)
	ms := mem.NewSystem(MemConfig(arch))
	if opts.CPUPrefetch {
		ms.PF = mem.NewPrefetcher(2)
	}
	cpu := pipeline.NewCore(cfg)
	res := newResult(arch, svc, len(reqs))
	model := EnergyModel(arch)

	sg := alloc.NewStackGroup(0, 1, false)
	la := opts.lookahead()
	sp := newRunSampler(opts.Sample, len(reqs), len(reqs))
	type cpuSlot struct {
		in *trace.Interp
		ub uopBuilder
	}
	slots := make([]cpuSlot, la+1)
	for i := range slots {
		slots[i].in = trace.NewInterp(svc, opts.Traces)
	}
	prepped := make([][]pipeline.Uop, la+1)
	err := pipelined(sp.unitCount(len(reqs)), la,
		func(slot, k int) error {
			i := sp.unit(k)
			sl := &slots[slot]
			tr, err := sl.in.Trace(i, &reqs[i], 0, sg.StackBase(0), alloc.PolicyCPU, lineBytes, 1)
			if err != nil {
				return err
			}
			sl.ub.reset()
			prepped[slot] = sl.ub.scalarUops(tr, 0)
			return nil
		},
		func(slot, k int) {
			if !sp.timed(sp.unit(k)) {
				sp.warm(cpu, ms, prepped[slot])
				return
			}
			prev := ms.Stats()
			ms.ResetTiming()
			st := cpu.Run(ms, prepped[slot])
			st.Mem = st.Mem.Delta(&prev)
			res.Stats.Accumulate(&st)
			res.Latency.Add(float64(st.Cycles))
			sp.observe(&st, 1)
		})
	if err != nil {
		return nil, err
	}
	sp.finish(res)
	res.Energy = model.Compute(&res.Stats, cfg.FreqGHz)
	return res, nil
}

// runSMT models the SMT-8 CPU: 8 worker threads dispatch round-robin
// through a shared frontend with per-thread ROB partitions and a shared
// banked L1. Only the Traces and PrepLookahead options apply (the SMT
// core is not an RPU configuration).
func runSMT(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options) (*Result, error) {
	cfg := PipelineConfig(arch)
	ms := mem.NewSystem(MemConfig(arch))
	cpu := pipeline.NewCore(cfg)
	res := newResult(arch, svc, len(reqs))
	model := EnergyModel(arch)

	const ways = 8
	sg := alloc.NewStackGroup(0, ways, false)
	groups := (len(reqs) + ways - 1) / ways

	// One slot per in-flight group: all of a group's streams live in
	// the slot's arena simultaneously until merged, and the merged
	// stream stays valid until the timing core has consumed it.
	la := opts.lookahead()
	type smtSlot struct {
		in      *trace.Interp
		ub      uopBuilder
		streams [][]pipeline.Uop
		uops    []pipeline.Uop
		n       int
	}
	sp := newRunSampler(opts.Sample, groups, len(reqs))
	slots := make([]smtSlot, la+1)
	for i := range slots {
		slots[i].in = trace.NewInterp(svc, opts.Traces)
	}
	err := pipelined(sp.unitCount(groups), la,
		func(slot, k int) error {
			g := sp.unit(k)
			off := g * ways
			end := off + ways
			if end > len(reqs) {
				end = len(reqs)
			}
			sl := &slots[slot]
			group := reqs[off:end]
			sl.ub.reset()
			sl.streams = sl.streams[:0]
			for t := range group {
				tr, err := sl.in.Trace(off+t, &group[t], t, sg.StackBase(t), alloc.PolicyCPU, lineBytes, 1)
				if err != nil {
					return err
				}
				sl.streams = append(sl.streams, sl.ub.scalarUops(tr, t))
			}
			sl.uops = sl.ub.mergeSMT(sl.streams)
			sl.n = len(group)
			return nil
		},
		func(slot, k int) {
			sl := &slots[slot]
			if !sp.timed(sp.unit(k)) {
				sp.warm(cpu, ms, sl.uops)
				return
			}
			prev := ms.Stats()
			ms.ResetTiming()
			st := cpu.Run(ms, sl.uops)
			st.Mem = st.Mem.Delta(&prev)
			res.Stats.Accumulate(&st)
			for j := 0; j < sl.n; j++ {
				res.Latency.Add(float64(st.Cycles))
			}
			sp.observe(&st, sl.n)
		})
	if err != nil {
		return nil, err
	}
	sp.finish(res)
	res.Energy = model.Compute(&res.Stats, cfg.FreqGHz)
	return res, nil
}

// runBatched models the RPU (and GPU): the SIMR-aware server forms
// batches, the driver lays out contiguous stacks and SIMR-aware heap
// arenas, the SIMT engine lock-steps the traces and the OoO-SIMT core
// executes the merged stream.
func runBatched(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options) (*Result, error) {
	cfgP := PipelineConfig(arch)
	cfgM := MemConfig(arch)
	if opts.Lanes > 0 {
		cfgP.Lanes = opts.Lanes
	}
	cfgP.MajorityVote = opts.MajorityVote
	cfgM.AtomicsAtL3 = opts.AtomicsAtL3
	size := opts.batchSize(svc)

	ms := mem.NewSystem(cfgM)
	rpu := pipeline.NewCore(cfgP)
	res := newResult(arch, svc, len(reqs))
	model := EnergyModel(arch)
	reconv := svc.BranchReconv()

	batches := batch.Form(reqs, size, opts.Policy)
	res.Batches = len(batches)
	// pos[b] is the read position of batch b's first request.
	pos := make([]int, len(batches))
	for b := 1; b < len(batches); b++ {
		pos[b] = pos[b-1] + len(batches[b-1].Requests)
	}

	// Preparation — trace fetch, lock-step merge, uop build — is pure:
	// it writes only the slot's scratch objects and a per-batch
	// MCUStats delta, so upcoming batches are prepared on worker
	// goroutines while the timing core consumes earlier ones. The
	// consumer applies each delta to ms.MCU before Run, which lands the
	// coalescer counts inside the same prev/Delta window the sequential
	// loop (which bumped ms.MCU during the build) gave them. When the
	// options carry a batch-stream cache, prep consults it first and
	// only falls back to the live build on a miss; a hit serves a
	// cache-owned read-only stream with zero allocations (each slot
	// owns one build closure and one reused key buffer).
	totalScalar, totalBatchOps := 0, 0
	la := opts.lookahead()
	type rpuSlot struct {
		in     *trace.Interp
		ub     uopBuilder
		sc     simt.Scratch
		key    []byte
		b      int
		local  trace.BatchStream
		stream *trace.BatchStream
		build  func() (*trace.BatchStream, error)
	}
	sp := newRunSampler(opts.Sample, len(batches), len(reqs))
	slots := make([]rpuSlot, la+1)
	for i := range slots {
		sl := &slots[i]
		sl.in = trace.NewInterp(svc, opts.Traces)
		sl.build = func() (*trace.BatchStream, error) {
			b := &batches[sl.b]
			sg := alloc.NewStackGroup(0, len(b.Requests), opts.StackInterleave)
			traces, err := sl.in.Batch(pos[sl.b], b.Requests, sg, opts.AllocPolicy, lineBytes, cfgM.L1.Banks)
			if err != nil {
				return nil, err
			}
			var merged *simt.Result
			if opts.UseIPDOM {
				merged, err = simt.RunIPDOMWith(&sl.sc, traces, size, reconv)
			} else {
				merged, err = simt.RunMinSPPCWith(&sl.sc, traces, size, opts.Spin)
			}
			if err != nil {
				return nil, err
			}
			// merged aliases sl.sc and the built uops alias sl.ub: the
			// local stream stays valid until the consumer releases the
			// slot (the cache deep copies it before sharing).
			sl.ub.reset()
			sl.local = trace.BatchStream{
				ScalarOps: merged.ScalarOps,
				BatchOps:  len(merged.Ops),
				Requests:  len(b.Requests),
			}
			sl.local.Uops = sl.ub.batchUops(merged.Ops, sg, opts.StackInterleave, &sl.local.MCU)
			return &sl.local, nil
		}
	}
	err := pipelined(sp.unitCount(len(batches)), la,
		func(slot, k int) error {
			sl := &slots[slot]
			sl.b = sp.unit(k)
			var err error
			if opts.BatchStreams == nil {
				sl.stream, err = sl.build()
				return err
			}
			sl.key = batchKey(sl.key[:0], batches[sl.b].Requests, size, &opts, cfgM.L1.Banks)
			sl.stream, err = opts.BatchStreams.Get(sl.key, sl.build)
			return err
		},
		func(slot, k int) {
			bs := slots[slot].stream
			if !sp.timed(sp.unit(k)) {
				sp.warm(rpu, ms, bs.Uops)
				return
			}
			// SIMT efficiency accumulates over timed units only — the
			// subpopulation Stats extrapolates from — so sampled runs
			// report one consistent Result; unsampled runs time every
			// unit and are unchanged.
			totalScalar += bs.ScalarOps
			totalBatchOps += bs.BatchOps
			prev := ms.Stats()
			ms.MCU.Add(&bs.MCU)
			ms.ResetTiming()
			st := rpu.Run(ms, bs.Uops)
			st.Mem = st.Mem.Delta(&prev)
			res.Stats.Accumulate(&st)
			for j := 0; j < bs.Requests; j++ {
				res.Latency.Add(float64(st.Cycles))
			}
			sp.observe(&st, bs.Requests)
		})
	if err != nil {
		return nil, err
	}
	if totalBatchOps > 0 {
		res.SIMTEff = float64(totalScalar) / (float64(totalBatchOps) * float64(size))
	}
	sp.finish(res)
	res.Energy = model.Compute(&res.Stats, cfgP.FreqGHz)
	return res, nil
}
