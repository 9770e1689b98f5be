package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"simr/internal/uservices"
)

func TestRunCellsOrderAndBounds(t *testing.T) {
	for _, workers := range []int{1, 3, 4, 100} {
		got, err := RunCells(17, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 17 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
	if out, err := RunCells(0, 4, func(i int) (int, error) { return 0, nil }); err != nil || out != nil {
		t.Fatalf("n=0: got %v, %v", out, err)
	}
}

func TestRunCellsError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		out, err := RunCells(32, workers, func(i int) (int, error) {
			if i == 5 {
				return 0, fmt.Errorf("cell %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: expected nil results on error", workers)
		}
	}
}

// TestChipStudyParallelDeterminism is the tentpole guarantee: the
// worker-pool sweep renders every figure byte-identically to the
// sequential path for the same seed.
func TestChipStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
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
	seq, err := ChipStudy(suite.Services, 32, 3, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ChipStudy(suite.Services, 32, 3, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(seq), render(par)) {
		t.Fatal("parallel chip study output differs from sequential")
	}
}

func TestEfficiencyStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq, err := EfficiencyStudy(suite.Services, 64, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := EfficiencyStudy(suite.Services, 64, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row count: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

func TestMPKIStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq, err := MPKIStudy(suite.Services, 32, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MPKIStudy(suite.Services, 32, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel MPKI study differs from sequential")
	}
}

func TestSensitivityStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq := sensReport(t, suite, []string{"urlshort", "memc"}, 64, 3, 1)
	par := sensReport(t, suite, []string{"urlshort", "memc"}, 64, 3, 4)
	if seq != par {
		t.Fatal("parallel sensitivity report differs from sequential")
	}
}

func TestMultiBatchSweepDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq, err := MultiBatchSweep(suite.Services, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MultiBatchSweep(suite.Services, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel multi-batch sweep differs from sequential")
	}
}

func TestBatchSweepDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	svc := suite.Get("memc")
	reqs := genRequests(svc, 64, 3)
	sizes := []int{32, 8}

	cpuSeq, seq, err := BatchSweep(svc, reqs, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	cpuPar, par, err := BatchSweep(svc, reqs, sizes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cpuSeq, cpuPar) || !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel batch sweep differs from sequential")
	}
	for i, row := range seq {
		if row.Size != sizes[i] || row.Res == nil {
			t.Fatalf("row %d: size %d, res %v", i, row.Size, row.Res)
		}
	}
}

// sensReport runs the sensitivity study on the named services and
// returns the rendered report.
func sensReport(t *testing.T, suite *uservices.Suite, names []string, requests int, seed int64, workers int) string {
	t.Helper()
	svcs, err := suite.Lookup(names...)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := SensitivityStudy(svcs, requests, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSensitivity(&buf, names, pairs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStudiesRejectNonPositiveRequests: a study over no requests has
// nothing to measure (its ratios would print as NaN, and a negative
// count used to panic in Service.Generate), so every study entry point
// rejects requests <= 0 with an error.
func TestStudiesRejectNonPositiveRequests(t *testing.T) {
	svcs, err := uservices.NewSuite().Lookup("memc")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -5} {
		studies := map[string]func() error{
			"chip":        func() error { _, err := ChipStudy(svcs, n, 1, false, 1); return err },
			"efficiency":  func() error { _, err := EfficiencyStudy(svcs, n, 1, 1); return err },
			"mpki":        func() error { _, err := MPKIStudy(svcs, n, 1, 1); return err },
			"sensitivity": func() error { _, err := SensitivityStudy(svcs, n, 1, 1); return err },
			"timing":      func() error { _, err := TimingSweep(svcs, n, 1, 1); return err },
		}
		for name, run := range studies {
			if err := run(); err == nil {
				t.Errorf("%s with %d requests: no error", name, n)
			}
		}
	}
}
