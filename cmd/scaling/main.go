// Command scaling prints Figure 5: off-chip DRAM bandwidth by memory
// generation and the per-socket thread count needed to consume it at
// the industry provisioning of ~2 GB/s per thread — the paper's Key
// Observation #5 that future sockets need 256-512 threads.
//
// With -bench it instead measures the simulator's own worker-pool
// scaling: it times the chip study sequentially and at -parallel
// workers, checks the outputs are byte-identical, and prints the
// speedup.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"simr/internal/core"
	"simr/internal/dist"
	"simr/internal/distflag"
	"simr/internal/envflag"
	"simr/internal/obsflag"
	"simr/internal/prof"
	"simr/internal/uservices"
)

func main() {
	bench := flag.Bool("bench", false, "time the chip-study sweep sequential vs parallel instead of printing Figure 5")
	requests := flag.Int("requests", 240, "requests per service for -bench")
	seed := flag.Int64("seed", 42, "workload seed for -bench")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	envFlags := envflag.Add(flag.CommandLine, envflag.Parallel|envflag.Lookahead|envflag.Sample)
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

	if *bench {
		benchSweep(env, distFlags, *requests, *seed)
		return
	}
	if distFlags.Active() {
		log.Fatal("-dist only applies to -bench (Figure 5 has no sweep to distribute)")
	}

	fmt.Println("Figure 5: off-chip DRAM bandwidth and thread scaling")
	core.WriteFig5(os.Stdout, core.Fig5Scaling())
	fmt.Println("\n(paper: up to 256 threads/socket with DDR5, 512 with DDR6/HBM)")
}

// benchSweep runs the chip study twice — one worker, then either env's
// goroutine pool or (with -dist) the dispatcher tier — verifies the
// rendered figures match byte for byte, and reports the wall-clock
// ratio.
func benchSweep(env core.Env, distFlags *distflag.Flags, requests int, seed int64) {
	if env.Workers <= 0 {
		env.Workers = core.DefaultWorkers()
	}
	seqEnv := env
	seqEnv.Workers = 1
	suite := uservices.NewSuite()

	render := func(rows []core.ChipRow) []byte {
		var buf bytes.Buffer
		core.WriteFig10(&buf, rows)
		core.WriteFig14(&buf, rows)
		core.WriteFig19(&buf, rows)
		core.WriteFig20(&buf, rows)
		core.WriteFig21(&buf, rows)
		return buf.Bytes()
	}

	t0 := time.Now()
	seqRows, err := core.ChipStudy(suite.Services, requests, seed, false, seqEnv)
	if err != nil {
		log.Fatal(err)
	}
	seqDur := time.Since(t0)

	var (
		parRows []core.ChipRow
		parTag  string
	)
	t1 := time.Now()
	if distFlags.Active() {
		spec := dist.SweepSpec{Studies: []dist.StudySpec{{
			Kind: dist.StudyChip, Requests: requests, Seed: seed,
		}}}
		res, err := distFlags.Run(env, spec)
		if err != nil {
			log.Fatal(err)
		}
		parRows = res.Studies[0].Chip
		parTag = fmt.Sprintf("dist (%s)", distFlags.Mode())
	} else {
		parRows, err = core.ChipStudy(suite.Services, requests, seed, false, env)
		if err != nil {
			log.Fatal(err)
		}
		parTag = fmt.Sprintf("parallel (%d workers)", env.Workers)
	}
	parDur := time.Since(t1)

	seqOut, parOut := render(seqRows), render(parRows)
	fmt.Printf("chip study, %d requests/service, seed %d\n", requests, seed)
	fmt.Printf("  sequential (1 worker):   %v\n", seqDur.Round(time.Millisecond))
	fmt.Printf("  %-24s %v\n", parTag+":", parDur.Round(time.Millisecond))
	fmt.Printf("  speedup:                 %.2fx\n", float64(seqDur)/float64(parDur))
	if bytes.Equal(seqOut, parOut) {
		fmt.Println("  outputs:                 byte-identical")
	} else {
		log.Fatal("outputs differ between sequential and parallel runs")
	}
}
