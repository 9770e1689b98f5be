package core

import (
	"fmt"
	"reflect"
	"testing"

	"simr/internal/obs"
	"simr/internal/sample"
	"simr/internal/simt"
	"simr/internal/uservices"
)

// TestSamplingDeterminism is the sampled-simulation contract, checked
// for every service, reconvergence/spin variant and both multi-unit
// architectures:
//
//   - Period 1 engages the sampler but times every unit, so the Result
//     must be identical — field for field — to the unsampled run, with
//     no Sampled estimate attached.
//   - Period 4 times a quarter of the units and extrapolates; the
//     requests/joule and mean-latency errors against the full run must
//     stay within twice the estimate's own reported confidence interval
//     plus a small floor: with only ~3 timed units the normal 1.96σ/√n
//     interval understates the true 95% band (the t quantile at two
//     degrees of freedom is 4.30), so the raw CI is too tight a gate.
func TestSamplingDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		{"base", func(o *Options) {}},
		{"ipdom", func(o *Options) { o.UseIPDOM = true }},
		{"tightspin", func(o *Options) { o.Spin = &simt.SpinConfig{Window: 4, MinAtomics: 1, Grant: 4} }},
	}
	for _, svc := range suite.Services {
		reqs := genRequests(svc, 96, 7)
		for _, arch := range []Arch{ArchRPU, ArchSMT8} {
			for _, v := range variants {
				if v.name != "base" && arch != ArchRPU {
					continue // reconvergence/spin options only shape RPU runs
				}
				t.Run(fmt.Sprintf("%s/%v/%s", svc.Name, arch, v.name), func(t *testing.T) {
					mk := func(period int) *Result {
						opts := DefaultOptions()
						opts.BatchSize = 8 // 12 units: enough population to sample
						v.mutate(&opts)
						opts.Sample = sample.Config{Period: period, Warmup: 1}
						res, err := RunService(arch, svc, reqs, opts)
						if err != nil {
							t.Fatalf("period %d: %v", period, err)
						}
						return res
					}
					full := mk(0)
					p1 := mk(1)
					if p1.Sampled != nil {
						t.Fatal("period 1 attached a sampling estimate")
					}
					if !reflect.DeepEqual(full, p1) {
						t.Fatal("period 1 differs from the unsampled run")
					}

					p4 := mk(4)
					est := p4.Sampled
					if est == nil {
						t.Fatal("period 4 reported no sampling estimate")
					}
					if est.Timed >= est.Units || est.TimedRequests >= est.Requests {
						t.Fatalf("period 4 timed everything: %d/%d units, %d/%d requests",
							est.Timed, est.Units, est.TimedRequests, est.Requests)
					}
					checkErr := func(metric string, got, want, ci float64) {
						err := got/want - 1
						if err < 0 {
							err = -err
						}
						if bound := 2*ci + 0.05; err > bound {
							t.Errorf("%s: sampled %.4g vs full %.4g (%.1f%% error, CI bound %.1f%%)",
								metric, got, want, 100*err, 100*bound)
						}
					}
					checkErr("requests/joule", p4.ReqPerJoule(), full.ReqPerJoule(), est.MaxRelCI())
					cy := est.Metric("cycles")
					if cy.Name == "" {
						t.Fatal("no cycles metric in the estimate")
					}
					checkErr("mean latency", p4.AvgLatencySec(), full.AvgLatencySec(), cy.RelCI95)
				})
			}
		}
	}
}

// TestSamplingObsCounters: with the hub enabled, a sampled run
// populates the core.sample scope with a unit split consistent with
// the population and the configured period.
func TestSamplingObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()

	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := genRequests(svc, 96, 7)
	opts := DefaultOptions()
	opts.BatchSize = 8
	opts.Sample = sample.Config{Period: 4, Warmup: 1}
	if _, err := RunService(ArchRPU, svc, reqs, opts); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, sc := range snap.Scopes {
		if sc.Name != "core.sample" {
			continue
		}
		c := sc.Counters
		if c["runs"] != 1 {
			t.Fatalf("runs %d, want 1", c["runs"])
		}
		total := c["timed_units"] + c["warmed_units"] + c["skipped_units"]
		if c["timed_units"] < 1 || total != 12 {
			t.Fatalf("unit split %d timed + %d warmed + %d skipped, want 12 total",
				c["timed_units"], c["warmed_units"], c["skipped_units"])
		}
		if c["warm_ns"] <= 0 {
			t.Fatalf("warm time not recorded: %+v", c)
		}
		if sc.Gauges["period_hwm"] != 4 {
			t.Fatalf("period gauge %d, want 4", sc.Gauges["period_hwm"])
		}
		return
	}
	t.Fatal("core.sample scope missing from the snapshot")
}

// TestSamplingEnvReachesCells checks the path the -sample flag uses: a
// study copies Env.Sample into every chip cell, so each cell runs
// sampled, and Period 1 leaves the study identical to the unsampled
// one.
func TestSamplingEnvReachesCells(t *testing.T) {
	svcs, err := uservices.NewSuite().Lookup("memc")
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Workers: 1, Sample: sample.Config{Period: 4, Warmup: 1}}
	rows, err := ChipStudy(svcs, 96, 7, false, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{rows[0].CPU, rows[0].SMT, rows[0].RPU} {
		if res.Sampled == nil || res.Sampled.Period != 4 {
			t.Fatalf("%v cell ran unsampled under Env.Sample 4:1", res.Arch)
		}
	}
	full, err := ChipStudy(svcs, 96, 7, false, Env{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	env.Sample = sample.Config{Period: 1, Warmup: 1}
	p1, err := ChipStudy(svcs, 96, 7, false, env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, p1) {
		t.Fatal("Env.Sample period 1 changed the study's results")
	}
}
