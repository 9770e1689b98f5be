// Command syssim reproduces Figure 22: the system-level QPS sweep of
// end-to-end p99 tail and average latency for the CPU-based system and
// the RPU-based system with and without batch splitting, on the User
// microservice path (WebServer → User → McRouter → Memcached →
// Storage). With -graph the tail engine instead sweeps any declarative
// service graph — a bundled scenario (social, composepost, hotel,
// media, iot) or a GraphSpec JSON file; the Figure 3 compose-post path
// runs as -tail -graph composepost -scale 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"simr/internal/core"
	"simr/internal/envflag"
	"simr/internal/obs"
	"simr/internal/obsflag"
	"simr/internal/prof"
	"simr/internal/queuesim"
)

func main() {
	seconds := flag.Float64("seconds", 4, "simulated seconds per load point")
	seed := flag.Int64("seed", 1, "simulation seed")
	maxQPS := flag.Float64("max", 70000, "highest offered load")
	points := flag.Int("points", 12, "number of load points")
	tail := flag.Bool("tail", false, "sweep the tail-at-scale engine (p50/p99/p999, overload policies) instead of the closure simulator")
	graphName := flag.String("graph", "", "tail mode: service graph to sweep — a bundled name (social|composepost|hotel|media|iot) or a GraphSpec .json file (implies -tail)")
	scale := flag.Float64("scale", 100, "tail mode: station-capacity multiplier (100 = the 100x Figure 22 analog)")
	arrivals := flag.String("arrivals", "poisson", "tail mode: arrival process (poisson|mmpp|diurnal|closed)")
	users := flag.Int("users", 0, "tail mode: closed-loop population per offered-load point (0 = derive from qps and think time)")
	think := flag.Float64("think", 100, "tail mode: closed-loop mean think time (ms)")
	timeout := flag.Float64("timeout", 0, "tail mode: per-try timeout (ms), 0 = none")
	retries := flag.Int("retries", 0, "tail mode: retries after a timed-out or rejected try")
	backoff := flag.Float64("backoff", 1, "tail mode: base retry backoff (ms), doubled per try")
	hedge := flag.Float64("hedge", 0, "tail mode: hedge delay (ms), 0 = no hedging")
	qcap := flag.Int("qcap", 0, "tail mode: per-station queue cap, 0 = unbounded")
	drain := flag.Float64("drain", 2, "tail mode: drain horizon (seconds past the arrival window)")
	schedName := flag.String("sched", "calendar", "tail mode: event scheduler (calendar|heap); outputs are byte-identical, only speed differs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	envFlags := envflag.Add(flag.CommandLine, envflag.Parallel)
	obsFlags := obsflag.Add(flag.CommandLine)
	flag.Parse()
	sched, spec, err := checkFlags(flagValues{
		seconds: *seconds, maxQPS: *maxQPS, points: *points, scale: *scale,
		arrivals: *arrivals, users: *users, think: *think, drain: *drain,
		sched: *schedName, graph: *graphName,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "syssim:", err)
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

	if *graphName != "" {
		*tail = true
	}

	// In tail mode the default sweep ceiling scales with capacity: the
	// same 70 kQPS grid the 1x sweep uses, times Scale machines.
	maxSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "max" {
			maxSet = true
		}
	})
	if *tail && !maxSet {
		*maxQPS = 70000 * *scale
	}

	var qps []float64
	for i := 1; i <= *points; i++ {
		qps = append(qps, *maxQPS*float64(i)/float64(*points))
	}

	if *tail {
		tc := tailSweepConfig{
			seconds: *seconds, seed: *seed, scale: *scale, drain: *drain,
			graph: spec, sched: sched,
			arrivals: queuesim.ArrivalConfig{
				Process: queuesim.ParseArrivalProcess(*arrivals),
				Users:   *users, ThinkMs: *think,
			},
			policy: queuesim.PolicyConfig{
				TimeoutMs: *timeout, MaxRetries: *retries, BackoffMs: *backoff,
				HedgeMs: *hedge, QueueCap: *qcap,
			},
		}
		if err := sweepTail(tc, qps, env); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println("Figure 22: end-to-end tail and average latency vs offered load")
	fmt.Println("(paper: CPU saturates ~15 kQPS; RPU w/ split ~60 kQPS at similar latency;")
	fmt.Println(" RPU w/o split shows elevated average latency but acceptable tail)")
	fmt.Println()

	modes := []struct {
		name       string
		rpu, split bool
	}{
		{"cpu", false, false},
		{"rpu-nosplit", true, false},
		{"rpu-split", true, true},
	}
	// Every (mode, QPS) point is an independent queuesim.Run with its
	// own seeded RNG, so the grid fans out on the sweep worker pool;
	// cells return formatted rows and printing stays in input order,
	// keeping the output byte-identical to the sequential loop.
	np := len(qps)
	rows, err := core.RunCells(len(modes)*np, env, func(i int) (string, error) {
		mode := modes[i/np]
		cfg := queuesim.DefaultConfig()
		cfg.QPS = qps[i%np]
		cfg.Seconds = *seconds
		cfg.Seed = *seed
		cfg.RPU = mode.rpu
		cfg.Split = mode.split
		if obs.Enabled() {
			// One Monitor (and trace pid) per sweep cell keeps the
			// per-station time series of concurrent cells separate.
			cfg.Monitor = &queuesim.Monitor{
				Reg:   obs.Default(),
				Sink:  obs.Trace(),
				Label: queuesim.CellLabel(mode.name, cfg.QPS),
				PID:   100 + i,
				MinDT: 1.0,
			}
		}
		m := queuesim.Run(cfg)
		measured := cfg.Seconds - cfg.Warmup
		return fmt.Sprintf("  %8.0f %10.0f %10.2f %10.2f %8.2f %6.1f\n",
			cfg.QPS, m.Throughput(measured), m.Latency.Percentile(99), m.Latency.Mean(),
			m.UserUtil, m.AvgBatchFill), nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for mi, mode := range modes {
		fmt.Printf("%s:\n", mode.name)
		fmt.Printf("  %8s %10s %10s %10s %8s %6s\n", "qps", "done/s", "p99(ms)", "avg(ms)", "util", "fill")
		for p := 0; p < np; p++ {
			fmt.Print(rows[mi*np+p])
		}
		fmt.Println()
	}
}

// flagValues are the parsed flags checkFlags vets.
type flagValues struct {
	seconds, maxQPS float64
	points          int
	scale           float64
	arrivals        string
	users           int
	think, drain    float64
	sched, graph    string
}

// checkFlags rejects values that would otherwise run something other
// than what was asked — an unknown arrival process (which would parse
// as Poisson), no load points or a horizon that is not finite and
// positive (tables of zeros or NaN), a sweep ceiling that is not finite
// and positive, a scale below 1 (which the engine would clamp to 1) or
// infinite, or a negative population, think time or drain — and
// resolves the scheduler and the -graph spec (nil for the default
// social graph), so every bad value exits before any output.
func checkFlags(v flagValues) (queuesim.Scheduler, *queuesim.GraphSpec, error) {
	if queuesim.ParseArrivalProcess(v.arrivals).String() != v.arrivals {
		return 0, nil, fmt.Errorf("-arrivals %s: unknown arrival process (want poisson|mmpp|diurnal|closed)", v.arrivals)
	}
	if v.points < 1 {
		return 0, nil, fmt.Errorf("-points %d: want at least 1", v.points)
	}
	if !(v.seconds > 0) || math.IsInf(v.seconds, 1) {
		return 0, nil, fmt.Errorf("-seconds %v: want a finite positive number", v.seconds)
	}
	if !(v.maxQPS > 0) || math.IsInf(v.maxQPS, 1) {
		return 0, nil, fmt.Errorf("-max %v: want a finite positive number", v.maxQPS)
	}
	if !(v.scale >= 1) || math.IsInf(v.scale, 1) {
		return 0, nil, fmt.Errorf("-scale %v: want a finite number of at least 1", v.scale)
	}
	if v.users < 0 {
		return 0, nil, fmt.Errorf("-users %d: want a non-negative population", v.users)
	}
	if !(v.think >= 0) {
		return 0, nil, fmt.Errorf("-think %v: want a non-negative number of ms", v.think)
	}
	if !(v.drain >= 0) {
		return 0, nil, fmt.Errorf("-drain %v: want a non-negative number of seconds", v.drain)
	}
	sched, err := queuesim.ParseScheduler(v.sched)
	if err != nil {
		return 0, nil, fmt.Errorf("-sched %s: %w", v.sched, err)
	}
	if v.graph == "" {
		return sched, nil, nil
	}
	spec, err := loadGraphArg(v.graph)
	if err != nil {
		return 0, nil, fmt.Errorf("-graph %s: %w", v.graph, err)
	}
	return sched, spec, nil
}

// loadGraphArg resolves the -graph argument: a .json file is loaded
// and validated as a GraphSpec, anything else is a bundled name.
func loadGraphArg(arg string) (*queuesim.GraphSpec, error) {
	if strings.HasSuffix(arg, ".json") {
		return queuesim.LoadGraph(arg)
	}
	return queuesim.GraphByName(arg, queuesim.DefaultConfig())
}

// tailSweepConfig carries the tail-mode knobs into the sweep cells.
type tailSweepConfig struct {
	seconds  float64
	seed     int64
	scale    float64
	drain    float64
	graph    *queuesim.GraphSpec
	sched    queuesim.Scheduler
	arrivals queuesim.ArrivalConfig
	policy   queuesim.PolicyConfig
}

// sweepTail runs the Figure 22 analog on the tail-at-scale engine:
// same three modes, Scale-times the machines, p50/p99/p999 and the
// overload-policy counters per load point, plus the total simulated
// event count. Every column is simulation output, so rows stay
// byte-identical at any -parallel; wall-clock cost per event is
// measured by perfbench's tail-policy workload instead.
func sweepTail(tc tailSweepConfig, qps []float64, env core.Env) error {
	if tc.graph != nil {
		fmt.Printf("Service graph %q at %.0fx scale (tail-at-scale engine, %s arrivals)\n",
			tc.graph.Name, tc.scale, tc.arrivals.Process)
	} else {
		fmt.Printf("Figure 22 analog at %.0fx scale (tail-at-scale engine, %s arrivals)\n",
			tc.scale, tc.arrivals.Process)
	}
	fmt.Println("(completions attributed by arrival inside the measured window; in-flight")
	fmt.Println(" work drains past the horizon instead of being censored)")
	fmt.Println()
	modes := []struct {
		name       string
		rpu, split bool
	}{
		{"cpu", false, false},
		{"rpu-nosplit", true, false},
		{"rpu-split", true, true},
	}
	if tc.graph != nil && tc.graph.Batch == nil {
		// A batchless spec has no RPU path; sweep the CPU system only.
		modes = modes[:1]
	}
	np := len(qps)
	rows, err := core.RunCells(len(modes)*np, env, func(i int) (string, error) {
		mode := modes[i/np]
		cfg := queuesim.TailConfig{Config: queuesim.DefaultConfig(),
			Scale: tc.scale, Arrivals: tc.arrivals, Policy: tc.policy,
			Graph: tc.graph, Scheduler: tc.sched}
		cfg.QPS = qps[i%np]
		cfg.Seconds = tc.seconds
		cfg.Warmup = tc.seconds / 4
		cfg.Drain = tc.drain
		cfg.Seed = tc.seed
		cfg.RPU = mode.rpu
		cfg.Split = mode.split
		if cfg.Arrivals.Process == queuesim.ArrClosed && cfg.Arrivals.Users == 0 {
			// Size the population so its nominal demand matches this
			// cell's offered-load column: X = N/(Z+R) with R ~ the
			// no-load response time. At least one user, or the engine
			// rejects the population as degenerate.
			cfg.Arrivals.Users = int(cfg.QPS * (cfg.Arrivals.ThinkMs + 5) / 1000)
			if cfg.Arrivals.Users < 1 {
				cfg.Arrivals.Users = 1
			}
		}
		if obs.Enabled() {
			cfg.Monitor = &queuesim.Monitor{
				Reg:   obs.Default(),
				Sink:  obs.Trace(),
				Label: queuesim.CellLabel("tail-"+mode.name, cfg.QPS),
				PID:   100 + i,
				MinDT: 1.0,
			}
		}
		m, err := queuesim.RunTail(cfg)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("  %9.0f %10.0f %8.2f %8.2f %8.2f %8d %7d %7d %7d %9d %7.1f\n",
			m.Offered, m.Throughput(), m.Latency.Percentile(50), m.Latency.Percentile(99),
			m.Latency.Percentile(99.9), m.TimedOut, m.Retried, m.Hedged, m.Rejected,
			m.InFlightHWM, float64(m.Events)/1e6), nil
	})
	if err != nil {
		return err
	}
	for mi, mode := range modes {
		fmt.Printf("%s:\n", mode.name)
		fmt.Printf("  %9s %10s %8s %8s %8s %8s %7s %7s %7s %9s %7s\n",
			"qps", "done/s", "p50(ms)", "p99(ms)", "p999(ms)", "timeo", "retry", "hedge", "reject", "hwm", "Mev")
		for p := 0; p < np; p++ {
			fmt.Print(rows[mi*np+p])
		}
		fmt.Println()
	}
	return nil
}
