package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"simr/internal/uservices"
)

func TestRunCellsOrderAndBounds(t *testing.T) {
	for _, workers := range []int{1, 3, 4, 100} {
		got, err := RunCells(17, Env{Workers: workers}, func(i int) (int, error) { return i * i, nil })
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
	if out, err := RunCells(0, Env{Workers: 4}, func(i int) (int, error) { return 0, nil }); err != nil || out != nil {
		t.Fatalf("n=0: got %v, %v", out, err)
	}
}

func TestRunCellsError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		out, err := RunCells(32, Env{Workers: workers}, func(i int) (int, error) {
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

// TestRunCellsCancel: once env.Ctx is done RunCells starts no
// further cell and returns the context's error. Cell 0 cancels; cell
// 1, which the second worker may already be running, waits for the
// cancellation, so any later cell that starts was started after it.
func TestRunCellsCancel(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan struct{})
		var (
			mu      sync.Mutex
			started []int
		)
		out, err := RunCells(16, Env{Ctx: ctx, Workers: workers}, func(i int) (int, error) {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			switch i {
			case 0:
				cancel()
				close(cancelled)
			case 1:
				<-cancelled
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("workers=%d: got %v, %v; want nil, context.Canceled", workers, out, err)
		}
		for _, i := range started {
			if i > workers-1 {
				t.Fatalf("workers=%d: cell %d started after cancellation (started %v)", workers, i, started)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		ran := false
		_, err := RunCells(4, Env{Ctx: ctx, Workers: workers}, func(int) (int, error) { ran = true; return 0, nil })
		if !errors.Is(err, context.Canceled) || ran {
			t.Fatalf("workers=%d, cancelled before the sweep: err %v, ran %v", workers, err, ran)
		}
	}
}

// testEnv is the environment the study tests run in: workers workers
// and the automatic prep lookahead.
func testEnv(workers int) Env { return Env{Workers: workers, Lookahead: PrepAuto} }

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
	seq, err := ChipStudy(suite.Services, 32, 3, false, testEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := ChipStudy(suite.Services, 32, 3, false, testEnv(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(seq), render(par)) {
		t.Fatal("parallel chip study output differs from sequential")
	}
}

func TestEfficiencyStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq, err := EfficiencyStudy(suite.Services, 64, 7, testEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := EfficiencyStudy(suite.Services, 64, 7, testEnv(4))
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
	seq, err := MPKIStudy(suite.Services, 32, 3, testEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := MPKIStudy(suite.Services, 32, 3, testEnv(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel MPKI study differs from sequential")
	}
}

func TestSensitivityStudyParallelDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq := sensReport(t, suite, []string{"urlshort", "memc"}, 64, 3, testEnv(1))
	par := sensReport(t, suite, []string{"urlshort", "memc"}, 64, 3, testEnv(4))
	if seq != par {
		t.Fatal("parallel sensitivity report differs from sequential")
	}
}

func TestMultiBatchSweepDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	seq, err := MultiBatchSweep(suite.Services, 3, testEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := MultiBatchSweep(suite.Services, 3, testEnv(4))
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

	cpuSeq, seq, err := BatchSweep(svc, reqs, sizes, testEnv(1))
	if err != nil {
		t.Fatal(err)
	}
	cpuPar, par, err := BatchSweep(svc, reqs, sizes, testEnv(3))
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
func sensReport(t *testing.T, suite *uservices.Suite, names []string, requests int, seed int64, env Env) string {
	t.Helper()
	svcs, err := suite.Lookup(names...)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := SensitivityStudy(svcs, requests, seed, env)
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
			"chip":        func() error { _, err := ChipStudy(svcs, n, 1, false, testEnv(1)); return err },
			"efficiency":  func() error { _, err := EfficiencyStudy(svcs, n, 1, testEnv(1)); return err },
			"mpki":        func() error { _, err := MPKIStudy(svcs, n, 1, testEnv(1)); return err },
			"sensitivity": func() error { _, err := SensitivityStudy(svcs, n, 1, testEnv(1)); return err },
			"timing":      func() error { _, err := TimingSweep(svcs, n, 1, testEnv(1)); return err },
		}
		for name, run := range studies {
			if err := run(); err == nil {
				t.Errorf("%s with %d requests: no error", name, n)
			}
		}
	}
}
