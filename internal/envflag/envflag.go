// Package envflag binds the cmd drivers' run-environment flags to one
// core.Env, next to internal/obsflag's -metrics/-trace pair:
//
//	-parallel N     Env.Workers: sweep worker goroutines (0 = one per CPU)
//	-lookahead N    Env.Lookahead: prep-pipeline depth (-1 = auto)
//	-sample SPEC    Env.Sample: sampled timing simulation ('off' = full)
//
// A driver registers only the flags it gives meaning to. Every value is
// checked as it is parsed, so a bad one fails flag parsing (exit 2 on
// flag.CommandLine) before any work starts.
package envflag

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"simr/internal/core"
)

// Set selects which flags Add registers.
type Set uint8

const (
	Parallel  Set = 1 << iota // -parallel
	Lookahead                 // -lookahead
	Sample                    // -sample
)

// Flags holds one driver's environment as its flags set it.
type Flags struct {
	env core.Env
}

// Add registers the selected flags on fs (flag.CommandLine for the
// drivers). Call before flag.Parse.
func Add(fs *flag.FlagSet, which Set) *Flags {
	f := &Flags{env: core.Env{Lookahead: core.PrepAuto}}
	if which&Parallel != 0 {
		fs.Var(&atLeast{&f.env.Workers, 0, "0 (one per CPU) or more"}, "parallel",
			"worker goroutines for the sweep (0 = one per CPU, 1 = sequential)")
	}
	if which&Lookahead != 0 {
		fs.Var(&atLeast{&f.env.Lookahead, core.PrepAuto, "-1 (auto) or more"}, "lookahead",
			"intra-run prep pipeline depth in batches (-1 = auto from spare CPUs, 0 = sequential)")
	}
	if which&Sample != 0 {
		fs.Var(&f.env.Sample, "sample",
			"sampled timing simulation: 'off', PERIOD (warmup 1) or PERIOD:WARMUP — time every PERIOD-th batch, functionally warm WARMUP batches before each, skip the rest (1 = time everything)")
	}
	return f
}

// Env returns the environment the parsed flags select, with a context
// that SIGINT/SIGTERM cancel so a sweep stops at a cell boundary and
// profiles, metrics and checkpoints still flush. Call stop to release
// the signal handler.
func (f *Flags) Env() (env core.Env, stop context.CancelFunc) {
	env = f.env
	env.Ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return env, stop
}

// atLeast is an int flag that rejects values below min.
type atLeast struct {
	p    *int
	min  int
	want string
}

func (a *atLeast) String() string {
	if a.p == nil {
		return ""
	}
	return strconv.Itoa(*a.p)
}

func (a *atLeast) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return errors.New("not an integer")
	}
	if int(n) < a.min {
		return fmt.Errorf("want %s", a.want)
	}
	*a.p = int(n)
	return nil
}
