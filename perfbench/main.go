// Command perfbench runs one workload of the repository's benchmark. An
// untraced run (--trace 0) executes the workload's study CLI repeatedly
// for --seconds, checks every output, and reports the end-to-end
// metrics; a traced run (--trace 1) adds the CLI's -metrics, -trace and
// -cpuprofile artefacts and an in-process probe of the layers, and
// reports the per-layer metrics. The last stdout line is the JSON
// result. run.sh builds the CLIs and this harness; README.md documents
// the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// digests holds the recorded stdout SHA-256 of each workload at its
// default and held-out seeds.
//
//go:embed digests.json
var digestsJSON []byte

// deadline bounds a whole benchmark run, which must end within 180 s.
const deadline = 165 * time.Second

type bench struct {
	w         *workload
	seed      int64
	binDir    string
	artDir    string
	digests   map[string]string
	digest    string // first digest seen this run
	execs     int    // workload CLI runs so far
	attempted int
	failed    int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	root := flag.String("root", ".", "checkout holding the study sources")
	binDir := flag.String("bin", "", "directory holding the built chipsim, syssim and obscheck")
	name := flag.String("workload", "", "chip-paper, chip-timing, tail-policy or fig22-closure")
	seedFlag := flag.Int64("seed", 0, "workload seed (default: the workload's own)")
	seconds := flag.Float64("seconds", 25, "measurement budget of an untraced run, in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	seed := w.defaultSeed
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seed = *seedFlag
		}
	})
	if *binDir == "" {
		log.Fatal("-bin is required")
	}
	var recorded map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		log.Fatalf("digests.json: %v", err)
	}
	b := &bench{w: w, seed: seed, binDir: *binDir, digests: recorded[w.name],
		artDir: filepath.Join(*root, ".bench_build", "artifacts", fmt.Sprintf("%s-%d", w.name, seed))}
	if err := os.MkdirAll(b.artDir, 0o755); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	defs, vals := perLayer, map[string]float64(nil)
	if *traced == 1 {
		vals = b.traced(ctx)
	} else {
		defs, vals = endToEnd, b.untraced(ctx, time.Duration(*seconds*float64(time.Second)))
	}
	if b.failed > 0 {
		// A failed run may leave metrics unmeasured; report them as 0
		// beside correct=false rather than dropping the result.
		for _, d := range defs {
			if _, ok := vals[d.name]; !ok {
				vals[d.name] = 0
			}
		}
	}
	res, err := buildResult(defs, vals, b.attempted, b.failed)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.write(os.Stdout, defs); err != nil {
		log.Fatal(err)
	}
}

// execResult is one CLI process: its stdout and resource usage.
type execResult struct {
	out   string
	wall  float64 // seconds
	cpu   float64 // user+sys seconds
	rssMB float64
}

// run executes one study CLI and returns its stdout and rusage.
func (b *bench) run(ctx context.Context, bin string, args []string) (execResult, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(b.binDir, bin), args...)
	cmd.Dir = b.artDir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	err := cmd.Run()
	r := execResult{out: out.String(), wall: time.Since(start).Seconds()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
			r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %v: %w", bin, args, err)
	}
	return r, nil
}

// verify checks one workload output: its invariants, the recorded
// digest for this seed if there is one, and equality with every other
// output of this run. It returns the output's fidelity ratios, if any.
func (b *bench) verify(out string) (*fidelity, error) {
	fid, err := b.w.check(out)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(out))
	d := hex.EncodeToString(sum[:])
	if want, ok := b.digests[strconv.FormatInt(b.seed, 10)]; ok && d != want {
		return nil, fmt.Errorf("digest %s, recorded %s", d, want)
	}
	if b.digest == "" {
		b.digest = d
		fmt.Printf("digest %s seed %d\n", d, b.seed)
	} else if d != b.digest {
		return nil, fmt.Errorf("digest %s differs from this run's first output %s", d, b.digest)
	}
	return fid, nil
}

// attempt counts one operation and reports whether it succeeded.
func (b *bench) attempt(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

// workloadRun executes the workload once and verifies its output.
func (b *bench) workloadRun(ctx context.Context, extra ...string) (execResult, *fidelity, bool) {
	r, err := b.run(ctx, b.w.bin, append(b.w.args(b.seed), extra...))
	var fid *fidelity
	if err == nil {
		fid, err = b.verify(r.out)
	}
	ok := b.attempt(b.w.name, err)
	b.execs++
	fmt.Printf("run %d: wall %.3f s, cpu %.3f s, rss %.0f MB, ok %v\n", b.execs, r.wall, r.cpu, r.rssMB, ok)
	return r, fid, ok
}

// untraced measures the end-to-end metrics: the medians over repeated
// CLI runs (at least two, more while the budget lasts), set-up time
// and the fidelity errors.
func (b *bench) untraced(ctx context.Context, budget time.Duration) map[string]float64 {
	vals := map[string]float64{}
	if d, err := setupTime(b.w, b.seed); b.attempt("setup", err) {
		vals["setup_s"] = d
	}

	var walls, cpus, rss []float64
	var fid *fidelity
	start := time.Now()
	for {
		if len(walls) >= 2 {
			last := time.Duration(walls[len(walls)-1] * float64(time.Second))
			if time.Since(start)+last > budget {
				break
			}
		}
		if dl, _ := ctx.Deadline(); len(walls) > 0 && time.Until(dl) < 2*time.Duration(walls[0]*float64(time.Second))+10*time.Second {
			break
		}
		r, f, ok := b.workloadRun(ctx)
		walls, cpus, rss = append(walls, r.wall), append(cpus, r.cpu), append(rss, r.rssMB)
		if !ok || ctx.Err() != nil {
			break
		}
		fid = f
	}
	vals["wall_s"], vals["cpu_s"], vals["peak_rss_mb"] = median(walls), median(cpus), median(rss)

	if fid == nil && b.failed == 0 {
		// Every workload reports the fidelity metrics; one whose output
		// has none gets them from a small chip study run outside the
		// timed runs.
		r, err := b.run(ctx, "chipsim", smokeArgs(b.seed))
		var f fidelity
		if err == nil {
			f, err = parseChip(r.out)
		}
		if b.attempt("fidelity smoke", err) {
			fid = &f
		}
	}
	if fid != nil {
		errs := fid.errs()
		measured := [4]float64{fid.ReqJ, fid.Latency, fid.L1, fid.MemLat}
		refs := [4]float64{paperRef.ReqJ, paperRef.Latency, paperRef.L1, paperRef.MemLat}
		for i, n := range fidelityNames {
			vals[n] = errs[i]
			fmt.Printf("%s %.4f: measured %.2fx vs paper %.2fx\n", n, errs[i], measured[i], refs[i])
		}
	}
	return vals
}

// traced measures the per-layer metrics of one workload run: the CLI's
// own counters, cell spans and CPU profile, plus the in-process probe.
func (b *bench) traced(ctx context.Context) map[string]float64 {
	vals := map[string]float64{}
	for _, d := range perLayer {
		vals[d.name] = 0
	}
	plain, _, ok := b.workloadRun(ctx)
	if !ok {
		return vals
	}
	art := func(name string) string { return filepath.Join(b.artDir, name) }
	metricsPath, tracePath, profPath, probePath := art("metrics.json"), art("cli.trace.json"), art("cpu.prof"), art("probe.trace.json")
	tr, _, ok := b.workloadRun(ctx, "-metrics", metricsPath, "-trace", tracePath, "-cpuprofile", profPath)
	if !ok {
		return vals
	}
	vals["bench.trace_overhead"] = tr.wall/plain.wall - 1

	samples, err := profileSamples(ctx, profPath)
	if err == nil {
		sum := 0.0
		for k, v := range shares(samples) {
			vals[k] = v
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			err = fmt.Errorf("host shares sum to %v, not 1", sum)
		}
	}
	if err == nil {
		err = cliLayers(metricsPath, tracePath, vals)
	}
	if err == nil {
		err = b.obscheck(ctx, "-metrics", metricsPath, "-trace", tracePath)
	}
	b.attempt("CLI artefacts", err)

	t := newTracer()
	ls := &layerStats{}
	split, err := profiled(ctx, art("probe.cpu.prof"), func() error { return b.w.probe(t, b.seed, tr.out, ls) })
	if err == nil {
		err = t.writeJSON(probePath)
	}
	if err == nil {
		err = b.obscheck(ctx, "-trace", probePath)
	}
	if b.attempt("layer probe", err) {
		ls.fill(vals, split)
	}
	return vals
}

// obscheck validates observability artefacts with the repository's
// cmd/obscheck, built unmodified.
func (b *bench) obscheck(ctx context.Context, args ...string) error {
	out, err := exec.CommandContext(ctx, filepath.Join(b.binDir, "obscheck"), args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("obscheck %v: %v: %s", args, err, out)
	}
	return nil
}

// profiled runs a probe under a CPU profile and returns how the host
// time inside core.RunService splits between layers; nil when the probe
// never calls it.
func profiled(ctx context.Context, path string, probe func() error) (map[string]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	err = probe()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	samples, err := profileSamples(ctx, path)
	if err != nil {
		return nil, err
	}
	inCell := within(samples, "simr/internal/core.RunService")
	if len(inCell) == 0 {
		return nil, nil
	}
	return shares(inCell), nil
}

// cliLayers reads the CLI's -metrics snapshot and -trace cell spans.
func cliLayers(metricsPath, tracePath string, vals map[string]float64) error {
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		return err
	}
	var snap struct {
		Scopes []struct {
			Name     string           `json:"name"`
			Counters map[string]int64 `json:"counters"`
			Gauges   map[string]int64 `json:"gauges"`
		} `json:"scopes"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("%s: %w", metricsPath, err)
	}
	sc := map[string]map[string]float64{}
	for _, s := range snap.Scopes {
		m := map[string]float64{}
		for k, v := range s.Counters {
			m[k] = float64(v)
		}
		for k, v := range s.Gauges {
			m[k] = float64(v)
		}
		sc[s.Name] = m
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tc, bc := sc["trace.cache"], sc["trace.batchcache"]
	vals["trace.scalar_hit_ratio"] = ratio(tc["hits"], tc["hits"]+tc["misses"])
	vals["trace.batch_hits"] = bc["hits"]
	vals["trace.batch_misses"] = bc["misses"]
	vals["trace.batch_bypassed"] = bc["bypassed"]
	vals["trace.batch_hit_ratio"] = ratio(bc["hits"], bc["hits"]+bc["misses"])
	vals["trace.batch_dropped_bytes"] = bc["dropped_bytes"]
	vals["trace.batch_bytes_hwm"] = bc["bytes_hwm"]
	prep, cells := sc["core.prep"], sc["core.runcells"]
	vals["core.prep_s"] = prep["prep_ns"] / 1e9
	vals["core.consume_s"] = prep["consume_ns"] / 1e9
	vals["core.prep_stall_s"] = prep["consume_stall_ns"] / 1e9
	vals["core.pool_busy_frac"] = ratio(cells["busy_ns"], cells["wall_ns"]*cells["workers_hwm"])
	vals["core.slowest_cell_s"] = cells["slowest_cell_ns_hwm"] / 1e9
	vals["core.cells"] = cells["cells"]

	raw, err = os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	var evs []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(raw, &evs); err != nil {
		return fmt.Errorf("%s: %w", tracePath, err)
	}
	var durs []float64
	for _, e := range evs {
		if e.Name == "cell" && e.Ph == "X" {
			durs = append(durs, e.Dur/1e6)
		}
	}
	if len(durs) != int(cells["cells"]) {
		return fmt.Errorf("%d cell spans for %v cells", len(durs), cells["cells"])
	}
	if len(durs) > 0 {
		vals["core.cell_p50_s"] = median(durs)
		vals["core.cell_tail_s"] = quantile(durs, tailQuantile(len(durs)))
	}
	return nil
}

// fill converts the probe's sums into per-layer metrics. The uop build
// is unexported and mem runs inside pipeline.Core.Run, so the time of
// the whole core.RunService calls is split by split, the layer shares
// of the probe's CPU samples inside core.RunService.
func (ls *layerStats) fill(vals, split map[string]float64) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	vals["isa.interp_s"] = ls.isaS.Seconds()
	vals["isa.trace_ops"] = ls.traceOps
	vals["isa.ns_per_op"] = div(float64(ls.isaS.Nanoseconds()), ls.traceOps)
	vals["batch.form_s"] = ls.formS.Seconds()
	vals["batch.batches"] = ls.batches
	vals["simt.merge_s"] = ls.mergeS.Seconds()
	vals["simt.batch_ops"] = ls.batchOps
	vals["simt.efficiency"] = div(ls.scalarOps, ls.lanes)

	vals["pipeline.run_s"] = ls.cellS.Seconds() * split["pipeline.host_share"]
	vals["pipeline.uops"] = ls.uops
	vals["pipeline.ns_per_uop"] = div(vals["pipeline.run_s"]*1e9, ls.uops)
	vals["pipeline.ipc"] = div(ls.uops, ls.cycles)
	vals["pipeline.mispredicts"] = ls.mispredicts
	vals["pipeline.flushed_lanes"] = ls.flushed
	vals["mem.l1_accesses"] = ls.l1Acc
	vals["mem.l1_mpki"] = div(ls.l1Miss*1000, ls.scalarOps)
	vals["mem.bank_conflicts"] = ls.bankConf
	vals["mem.dram_accesses"] = ls.dram
	vals["energy.compute_s"] = ls.energyS.Seconds()
	vals["energy.dynamic_share"] = div(ls.dynamicJ, ls.totalJ)

	if len(ls.tailPoints) > 0 {
		vals["queuesim.tail_point_s"] = median(ls.tailPoints)
	}
	vals["queuesim.events"] = ls.events
	vals["queuesim.ns_per_event"] = div(float64(ls.tailS.Nanoseconds()), ls.events)
	vals["queuesim.cancelled_timers"] = ls.cancelled
	vals["queuesim.inflight_hwm"] = ls.inflightHWM
	vals["queuesim.goodput_ratio"] = div(ls.completed, ls.offeredWork)
	if len(ls.closurePoints) > 0 {
		vals["queuesim.closure_point_s"] = median(ls.closurePoints)
	}
	vals["queuesim.closure_completed"] = ls.closureCompleted
}
