package core

import (
	"bytes"
	"reflect"
	"testing"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/obs"
	"simr/internal/sample"
	"simr/internal/simt"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// TestBatchCacheStudyDeterminism is the tentpole guarantee of the
// batch-stream cache: memoized sweeps render byte-identically to
// fresh-preparation sweeps at every (workers, lookahead) combination —
// the cache may only change wall clock, never output. Under -race this
// doubles as the cache's concurrent integration test.
func TestBatchCacheStudyDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	svcs := suite.Services

	t.Run("chip", func(t *testing.T) {
		render := func(rows []ChipRow) []byte {
			var buf bytes.Buffer
			WriteFig10(&buf, rows)
			WriteFig14(&buf, rows)
			WriteFig19(&buf, rows)
			WriteFig20(&buf, rows)
			WriteFig21(&buf, rows)
			return buf.Bytes()
		}
		for _, workers := range []int{1, 4} {
			for _, la := range []int{0, 1, 4} {
				env := Env{Workers: workers, Lookahead: la}
				// withGPU exercises cross-architecture stream sharing:
				// RPU and GPU cells have identical prep keys and must
				// serve each other's streams.
				cached, err := ChipStudy(svcs, 32, 3, true, env)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := ChipStudy(svcs, 32, 3, true, freshBatches(env))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(render(cached), render(fresh)) {
					t.Fatalf("workers=%d lookahead=%d: memoized chip study differs from fresh preparation", workers, la)
				}
			}
		}
	})

	t.Run("sensitivity", func(t *testing.T) {
		for _, la := range []int{0, 4} {
			env := Env{Workers: 4, Lookahead: la}
			names := []string{"urlshort", "memc"}
			cached := sensReport(t, suite, names, 64, 3, env)
			fresh := sensReport(t, suite, names, 64, 3, freshBatches(env))
			if cached != fresh {
				t.Fatalf("lookahead=%d: memoized sensitivity report differs from fresh preparation", la)
			}
		}
	})

	t.Run("efficiency", func(t *testing.T) {
		env := testEnv(4)
		cached, err := EfficiencyStudy(svcs, 64, 7, env)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := EfficiencyStudy(svcs, 64, 7, freshBatches(env))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("memoized efficiency study differs from fresh preparation")
		}
	})

	t.Run("timingsweep", func(t *testing.T) {
		render := func(rows []TimingRow) []byte {
			var buf bytes.Buffer
			WriteTimingSweep(&buf, rows)
			return buf.Bytes()
		}
		env := Env{Workers: 4, Lookahead: 1}
		cached, err := TimingSweep(svcs, 32, 3, env)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := TimingSweep(svcs, 32, 3, freshBatches(env))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(cached), render(fresh)) {
			t.Fatal("memoized timing sweep differs from fresh preparation")
		}
	})
}

// freshBatches returns env with the sweep-level batch-stream cache
// turned off, so every cell prepares its batches from scratch (the
// fresh-prep oracle).
func freshBatches(env Env) Env {
	env.freshBatches = true
	return env
}

// TestBatchCacheAdmission checks each study's cell plan against the
// batch-stream cache's counters, one service per run so the
// trace.batchcache obs scope (the process-wide mirror of
// BatchCache.Stats) reports that service alone. Only cells that share
// a prep signature may look up: the scalar and SMT-8 cells never do,
// nor do cells with a unique signature, and every sharing cell after
// the first is served from the cache.
func TestBatchCacheAdmission(t *testing.T) {
	suite := uservices.NewSuite()
	const requests, seed = 64, 3
	env := testEnv(2)
	for _, name := range []string{"memc", "uniqueid"} {
		svc := suite.Get(name)
		svcs := []*uservices.Service{svc}
		reqs := genRequests(svc, requests, seed)
		nb := uint64(len(batch.Form(reqs, svc.TunedBatch, batch.PerAPIArgSize)))

		// The three MinSP-PC efficiency cells share one signature but
		// form different batches: only batches an earlier policy already
		// formed can hit. The IPDOM cell's signature is unique.
		var effLookups uint64
		effKeys := map[string]bool{}
		for _, p := range []batch.Policy{batch.Naive, batch.PerAPI, batch.PerAPIArgSize} {
			for _, b := range batch.Form(reqs, effBatch, p) {
				effLookups++
				effKeys[string(effKey(nil, b.Requests, effBatch, false))] = true
			}
		}
		effMisses := uint64(len(effKeys))

		cases := []struct {
			study        string
			run          func() error
			hits, misses uint64
		}{
			{"chip", func() error { _, err := ChipStudy(svcs, requests, seed, false, env); return err }, 0, 0},
			{"chip-gpu", func() error { _, err := ChipStudy(svcs, requests, seed, true, env); return err }, nb, nb},
			{"timing", func() error { _, err := TimingSweep(svcs, requests, seed, env); return err }, 7 * nb, nb},
			{"sensitivity", func() error { _, err := SensitivityStudy(svcs, requests, seed, env); return err }, 3 * nb, nb},
			{"efficiency", func() error { _, err := EfficiencyStudy(svcs, requests, seed, env); return err }, effLookups - effMisses, effMisses},
			{"mpki", func() error { _, err := MPKIStudy(svcs, requests, seed, env); return err }, 0, 0},
			{"multibatch", func() error { _, err := MultiBatchSweep(svcs, seed, env); return err }, 0, 0},
			{"batchsweep", func() error { _, _, err := BatchSweep(svc, reqs, []int{32, 8}, env); return err }, 0, 0},
		}
		for _, c := range cases {
			reg := obs.NewRegistry()
			obs.Enable(reg, nil)
			err := c.run()
			obs.Disable()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.study, err)
			}
			var got obs.ScopeSnapshot
			for _, sc := range reg.Snapshot().Scopes {
				if sc.Name == "trace.batchcache" {
					got = sc
				}
			}
			hits, misses, bypassed := uint64(got.Counters["hits"]), uint64(got.Counters["misses"]), got.Counters["bypassed"]
			if hits != c.hits || misses != c.misses || bypassed != 0 {
				t.Errorf("%s/%s: %d hits, %d misses, %d bypassed; want %d hits, %d misses, 0 bypassed",
					name, c.study, hits, misses, bypassed, c.hits, c.misses)
			}
		}
	}
}

// TestBatchCacheRunServiceHits verifies the direct contract at the
// RunService level: two identical runs sharing one BatchCache produce
// equal Results, the second run is served entirely from the cache, and
// both match a run with no cache at all.
func TestBatchCacheRunServiceHits(t *testing.T) {
	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := genRequests(svc, 96, 7)
	bc := trace.NewBatchCache(trace.NewBudget(0))

	run := func(cache *trace.BatchCache) *Result {
		t.Helper()
		opts := DefaultOptions()
		opts.BatchStreams = cache
		opts.PrepLookahead = 2
		res, err := RunService(ArchRPU, svc, reqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run(bc)
	st := bc.Stats()
	if st.Misses != uint64(first.Batches) || st.Hits != 0 {
		t.Fatalf("first run: got %d misses / %d hits, want %d misses / 0 hits", st.Misses, st.Hits, first.Batches)
	}
	if st.Bytes <= 0 || st.BytesHWM < st.Bytes {
		t.Fatalf("first run: implausible retained bytes %d (hwm %d)", st.Bytes, st.BytesHWM)
	}

	second := run(bc)
	st2 := bc.Stats()
	if got := st2.Hits - st.Hits; got != uint64(second.Batches) {
		t.Fatalf("second run: got %d hits, want %d (every batch served from cache)", got, second.Batches)
	}
	if st2.Misses != st.Misses {
		t.Fatalf("second run rebuilt %d streams", st2.Misses-st.Misses)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache-served run differs from the run that built the cache")
	}

	if fresh := run(nil); !reflect.DeepEqual(first, fresh) {
		t.Fatal("memoized run differs from uncached run")
	}

	bc.Drop()
	dst := bc.Stats()
	if dst.Drops != 1 || dst.Bytes != 0 {
		t.Fatalf("after drop: drops=%d bytes=%d, want 1/0", dst.Drops, dst.Bytes)
	}
}

// TestSIMTEffSampledTimedUnitsOnly is the regression test for the
// sampled-run consistency fix: SIMTEff must be computed from the timed
// units only (the subpopulation every other Result field extrapolates
// from), not from all batches. The expected value is derived
// independently by lock-stepping exactly the batches the sampling grid
// times.
func TestSIMTEffSampledTimedUnitsOnly(t *testing.T) {
	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := genRequests(svc, 96, 7)
	const size = 32
	cfg := sample.Config{Period: 2, Warmup: 1}

	opts := DefaultOptions()
	opts.BatchSize = size
	opts.Sample = cfg
	res, err := RunService(ArchRPU, svc, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}

	batches := batch.Form(reqs, size, opts.Policy)
	if len(batches) < 2 {
		t.Fatalf("need >=2 batches to distinguish timed from warm units, got %d", len(batches))
	}
	timedAny := false
	scalar, ops := 0, 0
	var sc simt.Scratch
	for i, b := range batches {
		if cfg.Role(i) != sample.RoleTimed {
			continue
		}
		timedAny = true
		sg := alloc.NewStackGroup(0, len(b.Requests), opts.StackInterleave)
		traces, err := svc.TraceBatch(b.Requests, sg, opts.AllocPolicy, lineBytes, 8)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := simt.RunMinSPPCWith(&sc, traces, size, opts.Spin)
		if err != nil {
			t.Fatal(err)
		}
		scalar += merged.ScalarOps
		ops += len(merged.Ops)
	}
	if !timedAny {
		t.Fatal("sampling grid timed no unit; pick a different population")
	}
	want := float64(scalar) / (float64(ops) * float64(size))
	if res.SIMTEff != want {
		t.Fatalf("sampled SIMTEff = %v, want %v (timed units only)", res.SIMTEff, want)
	}

	// Timing every unit (Period 1) must agree with the unsampled run.
	opts.Sample = sample.Config{Period: 1}
	every, err := RunService(ArchRPU, svc, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Sample = sample.Config{}
	full, err := RunService(ArchRPU, svc, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if every.SIMTEff != full.SIMTEff {
		t.Fatalf("period-1 SIMTEff %v differs from unsampled %v", every.SIMTEff, full.SIMTEff)
	}
}
