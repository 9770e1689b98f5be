// Package distflag wires the distributed-sweep flag set into the cmd
// drivers, following the obsflag/envflag pattern:
//
//	-dist worker     -addr HOST:PORT   join a dispatcher and execute tasks
//	-dist dispatcher -addr HOST:PORT   serve the driver's sweep to workers
//	-dist local      -distworkers N    fork N local workers of this binary
//
// Worker mode ignores the driver's study flags — the sweep definition
// and the run environment arrive in the dispatcher's handshake — so
// any driver embedding this package can serve as the worker binary for
// its own dispatcher. With -dist unset nothing changes: the driver
// runs its normal single-process path.
package distflag

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"simr/internal/core"
	"simr/internal/dist"
)

// Flags holds the registered distributed-mode flags for one driver.
type Flags struct {
	mode       *string
	addr       *string
	workers    *int
	journal    *string
	resume     *bool
	window     *int
	metricsOut *string
}

// Add registers the distributed flags on fs. Call before flag.Parse.
func Add(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.mode = fs.String("dist", "",
		"distributed mode: 'dispatcher' (serve this sweep to workers at -addr), 'worker' (join a dispatcher at -addr), or 'local' (fork -distworkers local worker processes)")
	f.addr = fs.String("addr", "",
		"dispatcher TCP address: listen address for -dist dispatcher (default 127.0.0.1:0), dial address for -dist worker")
	f.workers = fs.Int("distworkers", 2, "forked local worker processes for -dist local")
	f.journal = fs.String("journal", "",
		"dispatcher checkpoint journal path; completed tasks are fsync'd so a killed sweep resumes with -resume")
	f.resume = fs.Bool("resume", false, "resume the sweep recorded in -journal instead of restarting it")
	f.window = fs.Int("window", 0,
		"dispatcher reorder window: max dispatch-ahead past the first incomplete task (0 = 64)")
	f.metricsOut = fs.String("distmetrics", "",
		"write the merged per-task worker metrics snapshot (deterministic-filtered JSON) to this file (dispatcher/local modes)")
	return f
}

// Mode returns the raw -dist value.
func (f *Flags) Mode() string { return *f.mode }

// Active reports whether the driver should route its sweep through the
// dispatcher (-dist dispatcher or -dist local).
func (f *Flags) Active() bool { return *f.mode == "dispatcher" || *f.mode == "local" }

// logf prefixes progress lines on stderr, keeping stdout clean for
// study output.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// HandleWorker runs worker mode when selected. It returns true when
// the driver should exit (worker mode ran, successfully or not).
func (f *Flags) HandleWorker(ctx context.Context) (bool, error) {
	if *f.mode != "worker" {
		if *f.mode != "" && !f.Active() {
			return true, fmt.Errorf("distflag: unknown -dist mode %q (want dispatcher, worker or local)", *f.mode)
		}
		return false, nil
	}
	if *f.addr == "" {
		return true, errors.New("distflag: -dist worker requires -addr")
	}
	return true, dist.RunWorker(ctx, dist.WorkerOptions{Addr: *f.addr, Logf: logf})
}

// Run executes the sweep in env through the selected distributed
// mode: 'dispatcher' serves external workers at -addr, 'local' forks
// -distworkers copies of this binary. Workers run each task in env's
// lookahead and sampling, one cell at a time. Both modes return the
// reassembled sweep result, which renders byte-identically to the
// single-process path. env.Ctx (which envflag always sets) cancels
// the sweep.
func (f *Flags) Run(env core.Env, spec dist.SweepSpec) (*dist.SweepResult, error) {
	cfg := dist.SweepConfig{Lookahead: env.Lookahead, Sample: env.Sample, Metrics: *f.metricsOut != "", TaskWorkers: 1}
	opts := dist.DispatcherOptions{
		Window:  *f.window,
		Journal: *f.journal,
		Resume:  *f.resume,
		Logf:    logf,
	}
	var (
		res *dist.SweepResult
		err error
	)
	switch *f.mode {
	case "dispatcher":
		opts.Addr = *f.addr
		var d *dist.Dispatcher
		if d, err = dist.NewDispatcher(spec, cfg, opts); err != nil {
			return nil, err
		}
		logf("dist: dispatcher listening on %s — start workers with: <binary> -dist worker -addr %s", d.Addr(), d.Addr())
		res, err = d.Run(env.Ctx)
	case "local":
		res, err = dist.RunLocal(env.Ctx, spec, cfg, *f.workers, opts)
	default:
		return nil, fmt.Errorf("distflag: Run called with -dist %q", *f.mode)
	}
	if err != nil {
		return nil, err
	}
	if *f.metricsOut != "" {
		file, ferr := os.Create(*f.metricsOut)
		if ferr != nil {
			return nil, ferr
		}
		if ferr := res.Obs.WriteJSON(file); ferr != nil {
			file.Close()
			return nil, ferr
		}
		if ferr := file.Close(); ferr != nil {
			return nil, ferr
		}
	}
	return res, nil
}
