// Command chipsim runs the chip-level CPU vs CPU-SMT8 vs RPU (vs GPU)
// comparison and prints the paper's evaluation artifacts:
//
//	-fig 10   CPU dynamic energy breakdown per pipeline stage
//	-fig 14   RPU L1 accesses normalized to the CPU
//	-fig 15   L1 MPKI, CPU vs RPU at batch sizes 32/16/8/4
//	-fig 19   energy efficiency (requests/joule) relative to the CPU
//	-fig 20   service latency relative to the CPU
//	-fig 21   latency-component metrics
//	-table 4  simulated configurations (Table IV)
//	-table 5  per-component area and peak power (Table V)
//	-table 6  GPU vs RPU terminology (Table VI)
//	-table 7  SIMR vs previous SIMT work (Table VII)
//	-sensitivity   §V-A1 ablations
//	-timing   RPU timing-knob sweep (lanes x vote x atomics placement)
//
// With no selector, all figures are printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"

	"simr/internal/core"
	"simr/internal/dist"
	"simr/internal/distflag"
	"simr/internal/energy"
	"simr/internal/envflag"
	"simr/internal/obsflag"
	"simr/internal/prof"
	"simr/internal/uservices"
)

func main() {
	requests := flag.Int("requests", core.DefaultRequests, "requests per service (paper: 2400)")
	seed := flag.Int64("seed", 42, "workload random seed")
	fig := flag.Int("fig", 0, "print a single figure (10, 14, 15, 19, 20, 21)")
	table := flag.Int("table", 0, "print a table (4, 5, 6 or 7)")
	sensitivity := flag.Bool("sensitivity", false, "run the sensitivity ablations")
	ispc := flag.Bool("ispc", false, "run the §VI-A SPMD-on-SIMD (ISPC) comparison")
	multiproc := flag.Bool("multiprocess", false, "run the §VI-B multi-process divergence study")
	multibatch := flag.Bool("multibatch", false, "run the §III-A multi-batch interleaving study")
	timing := flag.Bool("timing", false, "run the RPU timing-knob sweep (lanes x vote x atomics placement)")
	sensServices := flag.String("services", "", "comma-separated service subset for -sensitivity")
	gpu := flag.Bool("gpu", true, "include the GPU design point")
	jsonOut := flag.Bool("json", false, "emit the chip study as JSON instead of tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	envFlags := envflag.Add(flag.CommandLine, envflag.Parallel|envflag.Lookahead|envflag.Sample)
	obsFlags := obsflag.Add(flag.CommandLine)
	distFlags := distflag.Add(flag.CommandLine)
	flag.Parse()
	if err := checkFlags(*fig, *table); err != nil {
		fmt.Fprintln(os.Stderr, "chipsim:", err)
		os.Exit(2)
	}
	env, stopSig := envFlags.Env()
	defer stopSig()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	obsFlags.Setup()
	defer obsFlags.Close()

	if ran, err := distFlags.HandleWorker(env.Ctx); ran {
		if err != nil {
			obsFlags.Close()
			stopProf()
			log.Fatal(err)
		}
		return
	}
	// runDist routes one study through the dispatcher when -dist is
	// active; the reassembled rows render byte-identically to the
	// single-process path below.
	runDist := func(kind dist.StudyKind, services []string, withGPU bool) *dist.StudyOut {
		spec := dist.SweepSpec{Studies: []dist.StudySpec{{
			Kind: kind, Services: services, Requests: *requests, Seed: *seed, WithGPU: withGPU,
		}}}
		res, err := distFlags.Run(env, spec)
		if err != nil {
			log.Fatal(err)
		}
		return &res.Studies[0]
	}

	suite := uservices.NewSuite()

	if print := tables[*table]; print != nil {
		print()
		return
	}
	if distFlags.Active() && (*ispc || *multiproc) {
		log.Fatal("-ispc and -multiprocess are single-process studies; drop -dist")
	}
	if *ispc {
		runISPC(suite, *requests, *seed, env)
		return
	}
	if *multiproc {
		res, err := core.MultiProcessStudy(32, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("§VI-B: multi-threaded vs multi-process SIMT efficiency (batch 32)")
		fmt.Printf("  shared address space (threads):   %5.1f%%\n", 100*res.SharedEff)
		fmt.Printf("  separate processes (ASLR bases):  %5.1f%%\n", 100*res.SeparateEff)
		fmt.Printf("  processes aligned to one base:    %5.1f%%\n", 100*res.AlignedEff)
		fmt.Println("(paper §VI-B: separate address spaces cause control-flow divergence;")
		fmt.Println(" user-orchestrated sharing and VM changes can mitigate it)")
		return
	}
	if *multibatch {
		fmt.Println("§III-A: coarse-grain multi-batch interleaving headroom (2 batches/core)")
		fmt.Printf("%-18s %12s %12s %10s\n", "service", "sequential", "interleaved", "speedup")
		var rows []core.MultiBatchRow
		if distFlags.Active() {
			rows = runDist(dist.StudyMultiBatch, nil, false).Multi
		} else {
			var err error
			rows, err = core.MultiBatchSweep(suite.Services, *seed, env)
			if err != nil {
				log.Fatal(err)
			}
		}
		for _, row := range rows {
			fmt.Printf("%-18s %12d %12d %9.2fx\n", row.Service,
				row.Res.SequentialCycles, row.Res.InterleavedCycles, row.Res.Speedup())
		}
		fmt.Println("(the paper defers multi-batch scheduling to future work; this bounds its benefit)")
		return
	}
	if *timing {
		var rows []core.TimingRow
		if distFlags.Active() {
			rows = runDist(dist.StudyTiming, nil, false).Timing
		} else {
			var err error
			rows, err = core.TimingSweep(suite.Services, *requests, *seed, env)
			if err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println("RPU timing-knob sweep: lanes {8,32} x majority vote x atomics placement")
		fmt.Println("(timing knobs share prepared batch streams; see EXPERIMENTS.md, batch-stream caching)")
		core.WriteTimingSweep(os.Stdout, rows)
		return
	}
	if *sensitivity {
		var subset []string
		if *sensServices != "" {
			subset = strings.Split(*sensServices, ",")
		}
		if distFlags.Active() {
			out := runDist(dist.StudySensitivity, subset, false)
			if err := core.WriteSensitivity(os.Stdout, out.Services, out.Sens); err != nil {
				log.Fatal(err)
			}
			return
		}
		svcs, err := suite.Lookup(subset...)
		if err != nil {
			log.Fatal(err)
		}
		pairs, err := core.SensitivityStudy(svcs, *requests, *seed, env)
		if err != nil {
			log.Fatal(err)
		}
		names := make([]string, len(svcs))
		for i, svc := range svcs {
			names[i] = svc.Name
		}
		if err := core.WriteSensitivity(os.Stdout, names, pairs); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *fig == 15 {
		var rows []core.MPKIRow
		if distFlags.Active() {
			rows = runDist(dist.StudyMPKI, nil, false).MPKI
		} else {
			var err error
			rows, err = core.MPKIStudy(suite.Services, *requests, *seed, env)
			if err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println("Figure 15: L1 MPKI, CPU (64KB) vs RPU (256KB) by batch size")
		core.WriteFig15(os.Stdout, rows)
		return
	}

	var rows []core.ChipRow
	if distFlags.Active() {
		rows = runDist(dist.StudyChip, nil, *gpu).Chip
	} else {
		var err error
		rows, err = core.ChipStudy(suite.Services, *requests, *seed, *gpu, env)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *jsonOut {
		if err := core.WriteJSON(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		return
	}
	for i, f := range chipFigs {
		if *fig == 0 || *fig == f.n {
			fmt.Println(f.title)
			f.write(os.Stdout, rows)
			if i < len(chipFigs)-1 {
				fmt.Println()
			}
		}
	}
	// Prints nothing unless the study ran sampled (Period > 1), so
	// default output is unchanged.
	core.WriteSampling(os.Stdout, rows)
}

// chipFigs are the chip-study figures, in print order.
var chipFigs = []struct {
	n     int
	title string
	write func(io.Writer, []core.ChipRow)
}{
	{10, "Figure 10: CPU dynamic energy breakdown per pipeline stage", core.WriteFig10},
	{14, "Figure 14: RPU L1 accesses normalized to CPU (640 threads each)", core.WriteFig14},
	{19, "Figure 19: energy efficiency (requests/joule) relative to CPU", core.WriteFig19},
	{20, "Figure 20: service latency relative to CPU", core.WriteFig20},
	{21, "Figure 21: latency-component metrics (RPU relative to CPU)", core.WriteFig21},
}

// tables maps each -table value to its printer.
var tables = map[int]func(){
	4: printTable4,
	5: func() {
		fmt.Println("Table V: per-component area and peak power (7 nm, McPAT-derived)")
		energy.WriteTableV(os.Stdout)
	},
	6: printTable6,
	7: printTable7,
}

// checkFlags rejects selector values chipsim gives no meaning to, so a
// typo fails fast instead of running a study that prints nothing or the
// wrong thing. envflag checks the environment flags as they parse.
func checkFlags(fig, table int) error {
	known := fig == 0 || fig == 15 // 15 is the MPKI study's
	for _, f := range chipFigs {
		known = known || f.n == fig
	}
	if !known {
		return fmt.Errorf("-fig %d: want 10, 14, 15, 19, 20 or 21 (0 prints every chip figure)", fig)
	}
	if _, ok := tables[table]; table != 0 && !ok {
		return fmt.Errorf("-table %d: want 4, 5, 6 or 7", table)
	}
	return nil
}

// runISPC prints the §VI-A study: one request per AVX lane on the CPU
// vs the dedicated RPU, over the same requests; the CPU and RPU runs
// take env's lookahead and sampling.
func runISPC(suite *uservices.Suite, requests int, seed int64, env core.Env) {
	opts := core.DefaultOptions()
	opts.PrepLookahead, opts.Sample = env.Lookahead, env.Sample
	fmt.Println("§VI-A: SPMD-on-SIMD (ISPC-style, 8 AVX lanes) vs RPU, relative to scalar CPU")
	fmt.Printf("%-18s %12s %12s %12s %12s %10s\n",
		"service", "ispc req/J", "ispc lat", "rpu req/J", "rpu lat", "ispc eff")
	for _, svc := range suite.Services {
		r := rand.New(rand.NewSource(seed))
		reqs := svc.Generate(r, requests)
		cpu, err := core.RunService(core.ArchCPU, svc, reqs, opts)
		if err != nil {
			log.Fatal(err)
		}
		rpu, err := core.RunService(core.ArchRPU, svc, reqs, opts)
		if err != nil {
			log.Fatal(err)
		}
		isp, err := core.RunISPC(svc, reqs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %11.2fx %11.2fx %11.2fx %11.2fx %9.0f%%\n",
			svc.Name,
			isp.ReqPerJoule()/cpu.ReqPerJoule(), isp.AvgLatencySec()/cpu.AvgLatencySec(),
			rpu.ReqPerJoule()/cpu.ReqPerJoule(), rpu.AvgLatencySec()/cpu.AvgLatencySec(),
			100*isp.SIMTEff)
	}
	fmt.Println("(paper §VI-A: SIMD-on-CPU loses to the RPU on gathers, scalar fallback and predication)")
}

// printTable6 reproduces the GPU vs RPU terminology mapping.
func printTable6() {
	fmt.Println("Table VI: GPU vs RPU terminology")
	rows := [][2]string{
		{"Grid/Thread Block (1/2/3-dim)", "SW Batch (1-dim)"},
		{"Warp", "HW Batch"},
		{"Thread", "Thread/Request"},
		{"Kernel", "Service"},
		{"GPU Core / Streaming MultiProcessor", "RPU Core / Streaming MultiRequest"},
		{"SIMT", "SIMR"},
		{"CUDA Core", "Execution Lane"},
	}
	fmt.Printf("%-38s %s\n", "GPU", "RPU")
	for _, r := range rows {
		fmt.Printf("%-38s %s\n", r[0], r[1])
	}
}

// printTable7 reproduces the conceptual comparison with prior SIMT work.
func printTable7() {
	fmt.Println("Table VII: SIMR vs previous SIMT work")
	type row struct{ name, ooo, cpuISA, grain, sw string }
	rows := []row{
		{"GPUs", "no", "no", "fine", "data-parallel"},
		{"Vector-Thread (VT)", "no", "no", "fine", "data-parallel"},
		{"GPU+OoO", "yes", "no", "fine", "data-parallel"},
		{"Simty", "no", "yes", "fine", "data-parallel"},
		{"Vortex", "no", "yes", "fine", "data-parallel"},
		{"DITVA", "no", "yes", "fine", "data-parallel"},
		{"MSPS", "yes", "yes", "n/a", "web server"},
		{"SIMT-X", "yes", "yes", "fine", "data-parallel"},
		{"SIMR (this work)", "yes", "yes", "coarse", "data- & request-parallel microservices"},
	}
	fmt.Printf("%-20s %-5s %-8s %-7s %s\n", "design", "OoO", "CPU ISA", "grain", "workloads")
	for _, r := range rows {
		fmt.Printf("%-20s %-5s %-8s %-7s %s\n", r.name, r.ooo, r.cpuISA, r.grain, r.sw)
	}
}

func printTable4() {
	fmt.Println("Table IV: CPU vs CPU-SMT8 vs RPU simulated configuration")
	type row struct{ metric, cpu, smt, rpu string }
	rows := []row{
		{"core", "8-wide OoO", "8-wide OoO", "8-wide OoO"},
		{"ROB", "256", "256 (32/thread)", "256"},
		{"freq", "2.5 GHz", "2.5 GHz", "2.5 GHz"},
		{"cores", "98", "80", "20"},
		{"threads/core", "1", "SMT-8", "SIMT-32 (1 batch)"},
		{"total threads", "98", "640", "640"},
		{"lanes", "1", "1", "8"},
		{"max IPC/core", "8", "8", "64 (issue x lanes)"},
		{"ALU/branch latency", "1 cycle", "1 cycle", "4 cycles"},
		{"redirect penalty", "12", "12", "16"},
		{"L1D", "64KB 8w 3cyc 1bank", "64KB 8w 3cyc 8bank", "256KB 8w 8cyc 8bank"},
		{"L1 TLB", "48-entry", "64-entry", "256-entry 8-bank"},
		{"L2", "512KB 12cyc", "512KB 12cyc", "2MB 20cyc 2-bank"},
		{"L3", "32MB shared", "32MB shared", "32MB shared"},
		{"interconnect", "9x9 mesh", "11x11 mesh", "20x20 crossbar"},
		{"atomics", "in L1 (idealistic)", "in L1", "at shared L3"},
	}
	fmt.Printf("%-20s %-20s %-20s %-22s\n", "metric", "cpu", "cpu-smt8", "rpu")
	for _, r := range rows {
		fmt.Printf("%-20s %-20s %-20s %-22s\n", r.metric, r.cpu, r.smt, r.rpu)
	}
}
