package core

import (
	"bytes"
	"reflect"
	"testing"

	"simr/internal/obs"
	"simr/internal/uservices"
)

// TestTraceCacheStudyDeterminism is the tentpole guarantee of the
// trace cache: for every study, a cached sweep (on several workers, so
// the cache is exercised concurrently — run under -race this is also
// the cache's integration race test) renders byte-identically to a
// fresh-interpretation sweep.
func TestTraceCacheStudyDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	svcs := suite.Services
	env := testEnv(4)
	oracle := freshTraces(env)

	t.Run("chip", func(t *testing.T) {
		render := func(rows []ChipRow) []byte {
			var buf bytes.Buffer
			WriteFig10(&buf, rows)
			WriteFig14(&buf, rows)
			WriteFig19(&buf, rows)
			WriteFig20(&buf, rows)
			WriteFig21(&buf, rows)
			if err := WriteJSON(&buf, rows); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		cached, err := ChipStudy(svcs, 32, 3, false, env)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ChipStudy(svcs, 32, 3, false, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(cached), render(fresh)) {
			t.Fatal("cached chip study output differs from fresh interpretation")
		}
	})

	t.Run("efficiency", func(t *testing.T) {
		cached, err := EfficiencyStudy(svcs, 64, 7, env)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := EfficiencyStudy(svcs, 64, 7, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached efficiency study differs from fresh interpretation")
		}
	})

	t.Run("mpki", func(t *testing.T) {
		cached, err := MPKIStudy(svcs, 32, 3, env)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := MPKIStudy(svcs, 32, 3, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached MPKI study differs from fresh interpretation")
		}
	})

	t.Run("sensitivity", func(t *testing.T) {
		names := []string{"urlshort", "memc"}
		cached := sensReport(t, suite, names, 64, 3, env)
		fresh := sensReport(t, suite, names, 64, 3, oracle)
		if cached != fresh {
			t.Fatal("cached sensitivity report differs from fresh interpretation")
		}
	})

	t.Run("multibatch", func(t *testing.T) {
		cached, err := MultiBatchSweep(svcs, 3, env)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := MultiBatchSweep(svcs, 3, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached multi-batch sweep differs from fresh interpretation")
		}
	})

	t.Run("batchsweep", func(t *testing.T) {
		svc := suite.Get("memc")
		reqs := genRequests(svc, 64, 3)
		sizes := []int{32, 8}
		cpuC, cached, err := BatchSweep(svc, reqs, sizes, env)
		if err != nil {
			t.Fatal(err)
		}
		cpuF, fresh, err := BatchSweep(svc, reqs, sizes, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cpuC, cpuF) || !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached batch sweep differs from fresh interpretation")
		}
	})
}

// freshTraces returns env with the sweep-level trace cache turned off,
// so every cell interprets its requests from scratch (the pre-cache
// code path).
func freshTraces(env Env) Env {
	env.freshTraces = true
	return env
}

// TestTraceCacheAdmission pins each study's scalar-trace cache plan on
// the full suite at 240 requests per service, read from the trace.cache
// obs scope (the process-wide mirror of Cache.Stats). Hits equal what
// an admit-everything cache scored, so the plan loses no sharing;
// studies whose reads are all unique make no lookups; and every
// retained entry is released at its last planned read, having served
// at least two: nothing is bypassed or left for Drop.
func TestTraceCacheAdmission(t *testing.T) {
	svcs := uservices.NewSuite().Services
	const requests, seed = 240, 42
	env := testEnv(2)
	cases := []struct {
		study string
		run   func() error
		hits  int64
	}{
		{"chip", func() error { _, err := ChipStudy(svcs, requests, seed, false, env); return err }, 450},
		{"sensitivity", func() error { _, err := SensitivityStudy(svcs, requests, seed, env); return err }, 10800},
		{"mpki", func() error { _, err := MPKIStudy(svcs, requests, seed, env); return err }, 5534},
		{"efficiency", func() error { _, err := EfficiencyStudy(svcs, requests, seed, env); return err }, 3731},
		{"timing", func() error { _, err := TimingSweep(svcs, requests, seed, env); return err }, 0},
		{"multibatch", func() error { _, err := MultiBatchSweep(svcs, seed, env); return err }, 0},
	}
	for _, c := range cases {
		reg := obs.NewRegistry()
		obs.Enable(reg, nil)
		err := c.run()
		obs.Disable()
		if err != nil {
			t.Fatalf("%s: %v", c.study, err)
		}
		var got obs.ScopeSnapshot
		for _, sc := range reg.Snapshot().Scopes {
			if sc.Name == "trace.cache" {
				got = sc
			}
		}
		n := got.Counters
		if n["hits"] != c.hits || (c.hits == 0 && n["misses"] != 0) {
			t.Errorf("%s: %d hits, %d misses; want %d hits", c.study, n["hits"], n["misses"], c.hits)
		}
		if n["released"] != n["misses"] || n["bypassed"] != 0 || n["dropped_bytes"] != 0 {
			t.Errorf("%s: %d of %d retained entries released at their last planned read, %d bypassed, %d bytes dropped; want all, 0, 0",
				c.study, n["released"], n["misses"], n["bypassed"], n["dropped_bytes"])
		}
		if n["fresh"] == 0 {
			t.Errorf("%s: no fresh interpretations recorded", c.study)
		}
	}
}
