package simr

import (
	"math/rand"
	"strings"
	"testing"
)

// TestFacadeQuickstart exercises the README's quick-start path through
// the public API.
func TestFacadeQuickstart(t *testing.T) {
	suite := NewSuite()
	if len(suite.Services) != 15 {
		t.Fatalf("suite size %d", len(suite.Services))
	}
	svc := suite.Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(1)), 96)

	cpu, err := RunService(ArchCPU, svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rpu, err := RunService(ArchRPU, svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rpu.ReqPerJoule() <= cpu.ReqPerJoule() {
		t.Fatal("RPU should beat the CPU on requests/joule")
	}
}

func TestFacadeEfficiencyStudy(t *testing.T) {
	suite := NewSuite()
	rows, err := EfficiencyStudy(suite.Services, 128, 7, seqEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestFacadeSystemSim(t *testing.T) {
	cfg := DefaultSystemConfig()
	cfg.QPS = 3000
	cfg.Seconds = 1.5
	m := RunSystem(cfg)
	if m.Completed == 0 {
		t.Fatal("no completions")
	}
	ms := SweepSystem(cfg, []float64{2000, 4000})
	if len(ms) != 2 {
		t.Fatal("sweep size")
	}
}

func TestFacadeSensitivity(t *testing.T) {
	suite := NewSuite()
	svcs, err := suite.Lookup("urlshort")
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := SensitivityStudy(svcs, 64, 3, seqEnv)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSensitivity(&sb, []string{"urlshort"}, pairs); err != nil {
		t.Fatal(err)
	}
	if len(sb.String()) == 0 {
		t.Fatal("empty sensitivity report")
	}
}

func TestFacadeChipAndMPKI(t *testing.T) {
	suite := NewSuite()
	rows, err := ChipStudy(suite.Services, 32, 3, false, seqEnv)
	if err != nil || len(rows) != 15 {
		t.Fatalf("chip study: %v, %d rows", err, len(rows))
	}
	var sb strings.Builder
	if err := WriteResultsJSON(&sb, rows[:1]); err != nil {
		t.Fatal(err)
	}
	if len(sb.String()) == 0 {
		t.Fatal("empty JSON")
	}
	mrows, err := MPKIStudy(suite.Services, 32, 3, seqEnv)
	if err != nil || len(mrows) != 15 {
		t.Fatalf("mpki study: %v, %d rows", err, len(mrows))
	}
}

func TestFacadeExtensionStudies(t *testing.T) {
	mp, err := MultiProcessStudy(8, 3)
	if err != nil || mp.SharedEff <= mp.SeparateEff {
		t.Fatalf("multiprocess: %v %+v", err, mp)
	}
	suite := NewSuite()
	svc := suite.Get("uniqueid")
	reqs := svc.Generate(rand.New(rand.NewSource(3)), 64)
	mb, err := MultiBatchStudy(svc, reqs, DefaultOptions())
	if err != nil || mb.Speedup() <= 0 {
		t.Fatalf("multibatch: %v %+v", err, mb)
	}
	isp, err := RunISPC(svc, reqs)
	if err != nil || isp.Requests != 64 {
		t.Fatalf("ispc: %v", err)
	}
	g := NewGPGPUSuite()
	if len(g.Services) != 3 {
		t.Fatalf("gpgpu suite %d kernels", len(g.Services))
	}
	if DefaultRequests != 2400 {
		t.Fatal("paper request count constant")
	}
}
