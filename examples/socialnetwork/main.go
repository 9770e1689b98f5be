// Socialnetwork: the paper's headline experiment over the whole
// 15-microservice social-network suite — requests/joule and service
// latency of the RPU and CPU-SMT8 relative to the single-threaded CPU
// (Figures 19 and 20), printed as one table.
package main

import (
	"flag"
	"fmt"
	"log"

	"simr"
)

func main() {
	requests := flag.Int("requests", 960, "requests per service")
	seed := flag.Int64("seed", 42, "workload seed")
	parallel := flag.Int("parallel", 0, "worker goroutines for the sweep (0 = one per CPU, 1 = sequential)")
	flag.Parse()

	suite := simr.NewSuite()
	rows, err := simr.ChipStudy(suite.Services, *requests, *seed, false, simr.Env{Workers: *parallel, Lookahead: simr.PrepAuto})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Social-network suite: RPU and CPU-SMT8 vs single-threaded CPU")
	fmt.Printf("%-18s %14s %14s %14s %14s %8s\n",
		"service", "rpu req/J", "rpu latency", "smt8 req/J", "smt8 latency", "eff")
	var sumRPJ, sumLat float64
	for _, r := range rows {
		rpj := r.RPU.ReqPerJoule() / r.CPU.ReqPerJoule()
		lat := r.RPU.AvgLatencySec() / r.CPU.AvgLatencySec()
		srpj := r.SMT.ReqPerJoule() / r.CPU.ReqPerJoule()
		slat := r.SMT.AvgLatencySec() / r.CPU.AvgLatencySec()
		fmt.Printf("%-18s %13.2fx %13.2fx %13.2fx %13.2fx %7.0f%%\n",
			r.Service, rpj, lat, srpj, slat, 100*r.RPU.SIMTEff)
		sumRPJ += rpj
		sumLat += lat
	}
	n := float64(len(rows))
	fmt.Printf("\nRPU average: %.2fx requests/joule at %.2fx latency "+
		"(paper: 5.7x at 1.44x, worst-case latency 1.7x)\n", sumRPJ/n, sumLat/n)
}
