// Command distsweep runs one or more paper studies through the
// dispatcher/worker tier. By default it forks -distworkers local
// worker processes of itself; with -dist dispatcher it serves the
// sweep to externally launched workers (any driver binary run with
// -dist worker -addr ..., including distsweep itself), and with
// -dist worker it joins someone else's dispatcher.
//
// Usage:
//
//	distsweep -study chip,sensitivity -requests 96 -seed 7 -distworkers 4
//	distsweep -study timing -dist dispatcher -addr :9000 -journal sweep.journal
//	distsweep -dist worker -addr host:9000
//
// A sweep interrupted by SIGINT/SIGTERM (or a killed dispatcher)
// restarts from its -journal checkpoint with -resume.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"simr/internal/core"
	"simr/internal/dist"
	"simr/internal/distflag"
	"simr/internal/envflag"
	"simr/internal/obsflag"
	"simr/internal/prof"
)

func main() {
	study := flag.String("study", "chip", "comma-separated studies to run: chip|sensitivity|efficiency|mpki|timing|multibatch")
	services := flag.String("services", "", "comma-separated service subset (default: the whole suite)")
	requests := flag.Int("requests", core.DefaultRequests, "requests per service (paper: 2400)")
	seed := flag.Int64("seed", 42, "workload random seed")
	gpu := flag.Bool("gpu", false, "include the GPU design point (chip study)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	envFlags := envflag.Add(flag.CommandLine, envflag.Lookahead|envflag.Sample)
	obsFlags := obsflag.Add(flag.CommandLine)
	distFlags := distflag.Add(flag.CommandLine)
	flag.Parse()
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
	// Unlike the study drivers, distributing is this command's whole
	// point: no -dist selection means local forking.
	if !distFlags.Active() {
		flag.Set("dist", "local")
	}

	var subset []string
	if *services != "" {
		subset = strings.Split(*services, ",")
	}
	var spec dist.SweepSpec
	for _, name := range strings.Split(*study, ",") {
		kind, err := dist.ParseStudyKind(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		spec.Studies = append(spec.Studies, dist.StudySpec{
			Kind: kind, Services: subset, Requests: *requests, Seed: *seed, WithGPU: *gpu,
		})
	}

	res, err := distFlags.Run(env, spec)
	if err != nil {
		log.Fatal(err)
	}
	for i := range res.Studies {
		if i > 0 {
			fmt.Println()
		}
		if err := printStudy(&res.Studies[i]); err != nil {
			log.Fatal(err)
		}
	}
}

// printStudy renders one study with the same writers the study
// drivers use, so distsweep output matches theirs row for row.
func printStudy(so *dist.StudyOut) error {
	switch so.Spec.Kind {
	case dist.StudyChip:
		fmt.Println("Figure 19: energy efficiency (requests/joule) relative to CPU")
		core.WriteFig19(os.Stdout, so.Chip)
		fmt.Println()
		fmt.Println("Figure 20: service latency relative to CPU")
		core.WriteFig20(os.Stdout, so.Chip)
		core.WriteSampling(os.Stdout, so.Chip)
	case dist.StudySensitivity:
		return core.WriteSensitivity(os.Stdout, so.Services, so.Sens)
	case dist.StudyEfficiency:
		fmt.Println("Figure 11: SIMT control efficiency per batching policy (batch size 32)")
		core.WriteEfficiency(os.Stdout, so.Eff)
	case dist.StudyMPKI:
		fmt.Println("Figure 15: L1 MPKI, CPU (64KB) vs RPU (256KB) by batch size")
		core.WriteFig15(os.Stdout, so.MPKI)
	case dist.StudyTiming:
		fmt.Println("RPU timing-knob sweep: lanes {8,32} x majority vote x atomics placement")
		core.WriteTimingSweep(os.Stdout, so.Timing)
	case dist.StudyMultiBatch:
		fmt.Println("§III-A: coarse-grain multi-batch interleaving headroom (2 batches/core)")
		fmt.Printf("%-18s %12s %12s %10s\n", "service", "sequential", "interleaved", "speedup")
		for _, row := range so.Multi {
			fmt.Printf("%-18s %12d %12d %9.2fx\n", row.Service,
				row.Res.SequentialCycles, row.Res.InterleavedCycles, row.Res.Speedup())
		}
	default:
		return fmt.Errorf("distsweep: study kind %v has no printer", so.Spec.Kind)
	}
	return nil
}
