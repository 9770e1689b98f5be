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
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"simr/internal/core"
	"simr/internal/dist"
	"simr/internal/distflag"
	"simr/internal/obsflag"
	"simr/internal/prof"
	"simr/internal/sampleflag"
	"simr/internal/uservices"
)

func main() {
	bench := flag.Bool("bench", false, "time the chip-study sweep sequential vs parallel instead of printing Figure 5")
	requests := flag.Int("requests", 240, "requests per service for -bench")
	seed := flag.Int64("seed", 42, "workload seed for -bench")
	parallel := flag.Int("parallel", 0, "worker goroutines for -bench (0 = one per CPU)")
	lookahead := flag.Int("lookahead", core.PrepAuto, "intra-run prep pipeline depth in batches (-1 = auto from spare CPUs, 0 = sequential)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	obsFlags := obsflag.Add(flag.CommandLine)
	sampleFlags := sampleflag.Add(flag.CommandLine)
	distFlags := distflag.Add(flag.CommandLine)
	flag.Parse()
	core.SetPrepLookahead(*lookahead)
	if _, err := sampleFlags.Setup(); err != nil {
		log.Fatal(err)
	}

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	core.SetInterrupt(ctx)

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	obsFlags.Setup()
	defer obsFlags.Close()

	if ran, err := distFlags.HandleWorker(ctx); ran {
		if err != nil {
			obsFlags.Close()
			stopProf()
			log.Fatal(err)
		}
		return
	}

	if *bench {
		benchSweep(ctx, distFlags, *requests, *seed, *parallel)
		return
	}
	if distFlags.Active() {
		log.Fatal("-dist only applies to -bench (Figure 5 has no sweep to distribute)")
	}

	fmt.Println("Figure 5: off-chip DRAM bandwidth and thread scaling")
	core.WriteFig5(os.Stdout, core.Fig5Scaling())
	fmt.Println("\n(paper: up to 256 threads/socket with DDR5, 512 with DDR6/HBM)")
}

// benchSweep runs the chip study twice — one worker, then either the
// requested goroutine pool or (with -dist) the dispatcher tier —
// verifies the rendered figures match byte for byte, and reports the
// wall-clock ratio.
func benchSweep(ctx context.Context, distFlags *distflag.Flags, requests int, seed int64, parallel int) {
	if parallel <= 0 {
		parallel = core.DefaultWorkers()
	}
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
	seqRows, err := core.ChipStudy(suite.Services, requests, seed, false, 1)
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
		res, err := distFlags.Run(ctx, spec)
		if err != nil {
			log.Fatal(err)
		}
		parRows = res.Studies[0].Chip
		parTag = fmt.Sprintf("dist (%s)", distFlags.Mode())
	} else {
		parRows, err = core.ChipStudy(suite.Services, requests, seed, false, parallel)
		if err != nil {
			log.Fatal(err)
		}
		parTag = fmt.Sprintf("parallel (%d workers)", parallel)
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
