// Batchtuning: explore the §III-B3 batch-size tuning space for one
// service — latency, energy efficiency, SIMT efficiency and L1 MPKI as
// the batch shrinks from 32 to 4 — plus the SIMR-aware vs CPU heap
// allocator ablation (§III-B4). Data-intensive leaves show why the
// paper throttles them to batch 8.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"simr"
	"simr/internal/alloc"
)

func main() {
	name := flag.String("service", "search-leaf", "service to explore")
	requests := flag.Int("requests", 960, "request count")
	seed := flag.Int64("seed", 42, "workload seed")
	parallel := flag.Int("parallel", 0, "worker goroutines for the sweep (0 = one per CPU, 1 = sequential)")
	flag.Parse()

	suite := simr.NewSuite()
	svc := suite.Get(*name)
	reqs := svc.Generate(rand.New(rand.NewSource(*seed)), *requests)

	env := simr.Env{Workers: *parallel, Lookahead: simr.PrepAuto}
	cpu, rows, err := simr.BatchSweep(svc, reqs, []int{32, 16, 8, 4}, env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service %s: tuned batch size %d (data-intensive: %v)\n\n",
		svc.Name, svc.TunedBatch, svc.DataIntensive)
	fmt.Printf("%-10s %12s %12s %10s %10s\n", "batch", "latency", "req/J", "simt eff", "L1 MPKI")
	fmt.Printf("%-10s %11.2fx %11.2fx %10s %10.2f\n", "cpu", 1.0, 1.0, "-", cpu.L1MPKI())
	for _, row := range rows {
		rpu := row.Res
		fmt.Printf("rpu-%-6d %11.2fx %11.2fx %9.0f%% %10.2f\n",
			row.Size,
			rpu.AvgLatencySec()/cpu.AvgLatencySec(),
			rpu.ReqPerJoule()/cpu.ReqPerJoule(),
			100*rpu.SIMTEff, rpu.L1MPKI())
	}

	// Allocator ablation at the tuned batch size, one cell per policy.
	policies := []alloc.Policy{alloc.PolicySIMR, alloc.PolicyCPU}
	abl, err := simr.RunCells(len(policies), env, func(i int) (*simr.Result, error) {
		opts := simr.DefaultOptions()
		opts.AllocPolicy = policies[i]
		return simr.RunService(simr.ArchRPU, svc, reqs, opts)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheap allocator ablation (batch %d):\n", svc.TunedBatch)
	for i, pol := range policies {
		rpu := abl[i]
		fmt.Printf("  %-12s latency %.2fx of cpu, %d L1 bank conflicts\n",
			pol, rpu.AvgLatencySec()/cpu.AvgLatencySec(), rpu.Stats.Mem.L1.BankConflicts)
	}
}
