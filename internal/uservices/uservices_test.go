package uservices

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simr/internal/alloc"
	"simr/internal/isa"
)

func TestSuiteHasFifteenServices(t *testing.T) {
	suite := NewSuite()
	if len(suite.Services) != 15 {
		t.Fatalf("suite has %d services, want 15", len(suite.Services))
	}
	groups := map[string]int{}
	for _, svc := range suite.Services {
		groups[svc.Group]++
	}
	want := map[string]int{"Memcached": 3, "Search": 2, "HDSearch": 2, "Recommender": 2, "Post": 5, "User": 1}
	for g, n := range want {
		if groups[g] != n {
			t.Fatalf("group %s has %d services, want %d", g, groups[g], n)
		}
	}
}

func TestEveryServiceTraces(t *testing.T) {
	suite := NewSuite()
	for _, svc := range suite.Services {
		r := rand.New(rand.NewSource(3))
		reqs := svc.Generate(r, 16)
		sg := alloc.NewStackGroup(0, 16, false)
		for i := range reqs {
			arena := alloc.NewArena(i, alloc.PolicyCPU, 32, 8)
			tr, err := svc.Trace(&reqs[i], i, sg.StackBase(i), arena)
			if err != nil {
				t.Fatalf("%s: %v", svc.Name, err)
			}
			if len(tr) < 20 {
				t.Fatalf("%s request %d: suspiciously short trace (%d ops)", svc.Name, i, len(tr))
			}
			if len(tr) > 100000 {
				t.Fatalf("%s request %d: runaway trace (%d ops)", svc.Name, i, len(tr))
			}
		}
	}
}

func TestTracesAreDeterministic(t *testing.T) {
	suite := NewSuite()
	svc := suite.Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(5)), 4)
	sg := alloc.NewStackGroup(0, 4, false)
	for i := range reqs {
		a1 := alloc.NewArena(i, alloc.PolicySIMR, 32, 8)
		a2 := alloc.NewArena(i, alloc.PolicySIMR, 32, 8)
		t1, err1 := svc.Trace(&reqs[i], i, sg.StackBase(i), a1)
		t2, err2 := svc.Trace(&reqs[i], i, sg.StackBase(i), a2)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(t1) != len(t2) {
			t.Fatalf("non-deterministic trace length %d vs %d", len(t1), len(t2))
		}
		for j := range t1 {
			if t1[j] != t2[j] {
				t.Fatalf("trace diverges at op %d", j)
			}
		}
	}
}

func TestServiceProgramsLinkedDisjoint(t *testing.T) {
	suite := NewSuite()
	type span struct {
		lo, hi uint64
		name   string
	}
	var spans []span
	for _, svc := range suite.Services {
		for _, api := range svc.APIs {
			p := svc.Program(api)
			if !p.Linked() {
				t.Fatalf("%s/%s not linked", svc.Name, api)
			}
			spans = append(spans, span{p.Base, p.Base + p.Size(), svc.Name + "/" + api})
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("PC ranges overlap: %s [%#x,%#x) and %s [%#x,%#x)",
					a.name, a.lo, a.hi, b.name, b.lo, b.hi)
			}
		}
	}
}

func TestRequestAPIsAreValid(t *testing.T) {
	suite := NewSuite()
	for _, svc := range suite.Services {
		r := rand.New(rand.NewSource(7))
		for _, req := range svc.Generate(r, 64) {
			found := false
			for _, api := range svc.APIs {
				if api == req.API {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s generated unknown API %q", svc.Name, req.API)
			}
			if req.ArgBytes <= 0 {
				t.Fatalf("%s request has non-positive ArgBytes", svc.Name)
			}
		}
	}
}

func TestMemcAPIMix(t *testing.T) {
	suite := NewSuite()
	svc := suite.Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(11)), 1000)
	gets := 0
	for _, r := range reqs {
		if r.API == "get" {
			gets++
		}
	}
	if gets < 600 || gets > 800 {
		t.Fatalf("memc get fraction %d/1000, want ~70%%", gets)
	}
}

func TestUserHitFlagDistribution(t *testing.T) {
	suite := NewSuite()
	svc := suite.Get("user")
	reqs := svc.Generate(rand.New(rand.NewSource(13)), 2000)
	hits := 0
	for _, r := range reqs {
		if r.Args[HitFlagArg] != 0 {
			hits++
		}
	}
	frac := float64(hits) / 2000
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("user hit rate %.3f, want ~%.2f", frac, UserHitRate)
	}
}

func TestUserMissPathLonger(t *testing.T) {
	suite := NewSuite()
	svc := suite.Get("user")
	sg := alloc.NewStackGroup(0, 2, false)
	mk := func(hit uint64) int {
		req := Request{API: "getUser", Args: []uint64{0, 2, 0, hit}, Seed: 99}
		tr, err := svc.Trace(&req, 0, sg.StackBase(0), alloc.NewArena(0, alloc.PolicyCPU, 32, 8))
		if err != nil {
			t.Fatal(err)
		}
		return len(tr)
	}
	hitLen, missLen := mk(1), mk(0)
	if missLen <= hitLen*2 {
		t.Fatalf("miss path (%d ops) should dwarf hit path (%d ops)", missLen, hitLen)
	}
}

func TestPostAPIsHaveDifferentLengths(t *testing.T) {
	suite := NewSuite()
	svc := suite.Get("post")
	sg := alloc.NewStackGroup(0, 2, false)
	newPost := Request{API: "newPost", Args: []uint64{0, 10}, Seed: 1}
	getPost := Request{API: "getPostByUser", Args: []uint64{1, 2}, Seed: 1}
	t1, err := svc.Trace(&newPost, 0, sg.StackBase(0), alloc.NewArena(0, alloc.PolicyCPU, 32, 8))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := svc.Trace(&getPost, 0, sg.StackBase(0), alloc.NewArena(0, alloc.PolicyCPU, 32, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) <= len(t2) {
		t.Fatalf("newPost (%d) should be longer than getPostByUser (%d)", len(t1), len(t2))
	}
}

func TestStackFractionHighInPost(t *testing.T) {
	suite := NewSuite()
	svc := suite.Get("post")
	reqs := svc.Generate(rand.New(rand.NewSource(17)), 32)
	sg := alloc.NewStackGroup(0, 32, false)
	stack, heap := 0, 0
	for i := range reqs {
		tr, err := svc.Trace(&reqs[i], i, sg.StackBase(i), alloc.NewArena(i, alloc.PolicyCPU, 32, 8))
		if err != nil {
			t.Fatal(err)
		}
		s := isa.Summarize(tr, alloc.IsStack)
		stack += s.StackOps
		heap += s.HeapOps
	}
	frac := float64(stack) / float64(stack+heap)
	if frac < 0.5 {
		t.Fatalf("post stack access fraction %.2f, paper says up to 0.9", frac)
	}
}

func TestDataIntensiveLeavesTunedToEight(t *testing.T) {
	suite := NewSuite()
	for _, name := range []string{"search-leaf", "hdsearch-leaf"} {
		svc := suite.Get(name)
		if !svc.DataIntensive || svc.TunedBatch != 8 {
			t.Fatalf("%s: DataIntensive=%v TunedBatch=%d", name, svc.DataIntensive, svc.TunedBatch)
		}
	}
	if suite.Get("memc").TunedBatch != 32 {
		t.Fatal("memc should run at batch 32")
	}
}

func TestBranchReconvCoversBranches(t *testing.T) {
	suite := NewSuite()
	svc := suite.Get("post-text")
	rec := svc.BranchReconv()
	if len(rec) == 0 {
		t.Fatal("no reconvergence points recorded")
	}
	for br, rc := range rec {
		if rc <= br {
			t.Fatalf("reconv %#x not after branch %#x", rc, br)
		}
	}
}

// Property: arg-size ordering correlates with trace length for the
// length-driven services (post-text): longer arguments never produce a
// dramatically shorter trace.
func TestQuickArgSizeLengthCorrelation(t *testing.T) {
	suite := NewSuite()
	svc := suite.Get("post-text")
	sg := alloc.NewStackGroup(0, 1, false)
	f := func(a, b uint8) bool {
		wa, wb := int(a%150)+8, int(b%150)+8
		if wa > wb {
			wa, wb = wb, wa
		}
		mk := func(words int) int {
			req := Request{API: "process", Args: []uint64{0, uint64(words)}, Seed: 5}
			tr, err := svc.Trace(&req, 0, sg.StackBase(0), alloc.NewArena(0, alloc.PolicyCPU, 32, 8))
			if err != nil {
				return -1
			}
			return len(tr)
		}
		la, lb := mk(wa), mk(wb)
		return la > 0 && lb > 0 && lb >= la
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupUnknownServiceErrors: names from flags and wire frames go
// through Lookup, which must report an unknown name as an error (Get
// panics on one) and otherwise keep the caller's order.
func TestLookupUnknownServiceErrors(t *testing.T) {
	suite := NewSuite()
	if _, err := suite.Lookup("memc", "nosuch"); err == nil {
		t.Fatal("Lookup of an unknown service returned no error")
	}
	svcs, err := suite.Lookup("user", "memc")
	if err != nil {
		t.Fatal(err)
	}
	if svcs[0].Name != "user" || svcs[1].Name != "memc" {
		t.Fatalf("Lookup reordered services: %s, %s", svcs[0].Name, svcs[1].Name)
	}
	all, err := suite.Lookup()
	if err != nil || len(all) != len(suite.Services) {
		t.Fatalf("Lookup() = %d services, %v; want the whole suite", len(all), err)
	}
}
