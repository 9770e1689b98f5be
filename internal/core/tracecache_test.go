package core

import (
	"bytes"
	"reflect"
	"testing"

	"simr/internal/uservices"
)

// withFreshTraces runs fn with the sweep-level trace cache disabled so
// every cell interprets its requests from scratch (the pre-cache code
// path).
func withFreshTraces(t *testing.T, fn func()) {
	t.Helper()
	disableTraceCache = true
	defer func() { disableTraceCache = false }()
	fn()
}

// TestTraceCacheStudyDeterminism is the tentpole guarantee of the
// trace cache: for every study, a cached sweep (on several workers, so
// the cache is exercised concurrently — run under -race this is also
// the cache's integration race test) renders byte-identically to a
// fresh-interpretation sweep.
func TestTraceCacheStudyDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	svcs := suite.Services
	const workers = 4

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
		cached, err := ChipStudy(svcs, 32, 3, false, workers)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []ChipRow
		withFreshTraces(t, func() {
			fresh, err = ChipStudy(svcs, 32, 3, false, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(cached), render(fresh)) {
			t.Fatal("cached chip study output differs from fresh interpretation")
		}
	})

	t.Run("efficiency", func(t *testing.T) {
		cached, err := EfficiencyStudy(svcs, 64, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []EffRow
		withFreshTraces(t, func() {
			fresh, err = EfficiencyStudy(svcs, 64, 7, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached efficiency study differs from fresh interpretation")
		}
	})

	t.Run("mpki", func(t *testing.T) {
		cached, err := MPKIStudy(svcs, 32, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []MPKIRow
		withFreshTraces(t, func() {
			fresh, err = MPKIStudy(svcs, 32, 3, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached MPKI study differs from fresh interpretation")
		}
	})

	t.Run("sensitivity", func(t *testing.T) {
		names := []string{"urlshort", "memc"}
		cached := sensReport(t, suite, names, 64, 3, workers)
		var fresh string
		withFreshTraces(t, func() {
			fresh = sensReport(t, suite, names, 64, 3, workers)
		})
		if cached != fresh {
			t.Fatal("cached sensitivity report differs from fresh interpretation")
		}
	})

	t.Run("multibatch", func(t *testing.T) {
		cached, err := MultiBatchSweep(svcs, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []MultiBatchRow
		withFreshTraces(t, func() {
			fresh, err = MultiBatchSweep(svcs, 3, workers)
		})
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
		cpuC, cached, err := BatchSweep(svc, reqs, sizes, workers)
		if err != nil {
			t.Fatal(err)
		}
		var (
			cpuF  *Result
			fresh []BatchSweepRow
		)
		withFreshTraces(t, func() {
			cpuF, fresh, err = BatchSweep(svc, reqs, sizes, workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cpuC, cpuF) || !reflect.DeepEqual(cached, fresh) {
			t.Fatal("cached batch sweep differs from fresh interpretation")
		}
	})
}
