package trace

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"simr/internal/alloc"
	"simr/internal/isa"
	"simr/internal/uservices"
)

func testService(t testing.TB) (*uservices.Service, []uservices.Request) {
	t.Helper()
	svc := uservices.NewSuite().Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(11)), 24)
	return svc, reqs
}

func freshTrace(t testing.TB, svc *uservices.Service, req *uservices.Request, tid int, stackBase uint64, policy alloc.Policy, banks int) []isa.TraceOp {
	t.Helper()
	arena := alloc.NewArena(tid, policy, 64, banks)
	ops, err := svc.Trace(req, tid, stackBase, arena)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// planBatch plans one cell reading every request of reqs n times in a
// row at its batch position: request i's reads are at positions
// n*i..n*i+n-1.
func planBatch(reqs []uservices.Request, sg *alloc.StackGroup, n int, budget *Budget) *Cache {
	p := NewPlan()
	p.Cell(false)
	for i := range reqs {
		for k := 0; k < n; k++ {
			p.Read(true, &reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 64, 8)
		}
	}
	return NewCache(p, budget)
}

func TestCacheMatchesFreshInterpretation(t *testing.T) {
	svc, reqs := testService(t)
	sg := alloc.NewStackGroup(0, len(reqs), true)
	c := planBatch(reqs, sg, 2, nil)
	for pass := 0; pass < 2; pass++ { // miss, then hit
		in := NewInterp(svc, c.Reads(0))
		for i := range reqs {
			want := freshTrace(t, svc, &reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 8)
			got, err := in.Trace(2*i+pass, &reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 64, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("req %d pass %d: cached trace differs from fresh", i, pass)
			}
		}
		if st := c.Stats(); pass == 0 && st.Bytes <= 0 {
			t.Fatalf("retained bytes after first pass = %d, want > 0", st.Bytes)
		}
	}
	st := c.Stats()
	n := uint64(len(reqs))
	if st.Misses != n || st.Hits != n || st.Released != n || st.Fresh != 0 {
		t.Fatalf("stats = %+v, want %d misses, hits and releases", st, n)
	}
	if st.Bytes != 0 || st.BytesHWM <= 0 {
		t.Fatalf("bytes = %d (hwm %d), want all released after the last planned reads", st.Bytes, st.BytesHWM)
	}
}

// TestCacheReleasesAtLastPlannedRead checks admission and release: a
// key planned once is interpreted fresh and never retained, a key
// planned three times is retained until its third read, and a read
// beyond the plan is served fresh.
func TestCacheReleasesAtLastPlannedRead(t *testing.T) {
	svc, reqs := testService(t)
	sg := alloc.NewStackGroup(0, 2, true)
	p := NewPlan()
	p.Cell(false)
	for pos := 0; pos < 4; pos++ { // request 0 once, then request 1 thrice
		r := min(pos, 1)
		p.Read(true, &reqs[r], r, sg.StackBase(r), alloc.PolicySIMR, 64, 8)
	}
	c := NewCache(p, nil)
	in := NewInterp(svc, c.Reads(0))
	want := [][]isa.TraceOp{
		freshTrace(t, svc, &reqs[0], 0, sg.StackBase(0), alloc.PolicySIMR, 8),
		freshTrace(t, svc, &reqs[1], 1, sg.StackBase(1), alloc.PolicySIMR, 8),
	}
	read := func(pos int) {
		t.Helper()
		r := min(pos, 1)
		got, err := in.Trace(pos, &reqs[r], r, sg.StackBase(r), alloc.PolicySIMR, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[r]) {
			t.Fatalf("position %d: trace differs from fresh", pos)
		}
	}
	read(0)
	if st := c.Stats(); st.Fresh != 1 || st.Misses != 0 || st.Bytes != 0 {
		t.Fatalf("after single-read key: %+v, want one fresh read and nothing retained", st)
	}
	for pos := 1; pos <= 3; pos++ {
		read(pos)
		if st := c.Stats(); (st.Bytes > 0) != (pos < 3) {
			t.Fatalf("after read %d of 3: retained %d bytes", pos, st.Bytes)
		}
	}
	read(3) // beyond the plan
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Released != 1 || st.Bypassed != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 2 hits, 1 release, 1 bypass", st)
	}
}

func TestCacheKeySeparatesLayouts(t *testing.T) {
	svc, reqs := testService(t)
	req := &reqs[0]
	sg := alloc.NewStackGroup(0, 8, true)
	// Same request under two allocation policies must give each policy
	// its fresh-interpretation trace, not a shared one.
	policies := []alloc.Policy{alloc.PolicyCPU, alloc.PolicySIMR}
	p := NewPlan()
	p.Cell(false)
	for pass := 0; pass < 2; pass++ {
		for _, policy := range policies {
			p.Read(true, req, 3, sg.StackBase(3), policy, 64, 8)
		}
	}
	c := NewCache(p, nil)
	in := NewInterp(svc, c.Reads(0))
	for pos := 0; pos < 4; pos++ {
		policy := policies[pos%2]
		want := freshTrace(t, svc, req, 3, sg.StackBase(3), policy, 8)
		got, err := in.Trace(pos, req, 3, sg.StackBase(3), policy, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %v: cached trace differs from fresh", policy)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses and 2 hits (distinct keys)", st)
	}
}

func TestCacheBudgetBypass(t *testing.T) {
	svc, reqs := testService(t)
	sg := alloc.NewStackGroup(0, 2, true)
	// A budget of one op's bytes forces every real trace to bypass.
	c := planBatch(reqs[:1], sg, 2, NewBudget(traceOpBytes))
	in := NewInterp(svc, c.Reads(0))
	want := freshTrace(t, svc, &reqs[0], 0, sg.StackBase(0), alloc.PolicySIMR, 8)
	for pos := 0; pos < 2; pos++ {
		got, err := in.Trace(pos, &reqs[0], 0, sg.StackBase(0), alloc.PolicySIMR, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("read %d: bypassed trace differs from fresh", pos)
		}
	}
	st := c.Stats()
	if st.Bypassed == 0 || st.Bytes != 0 || st.BytesHWM != 0 {
		t.Fatalf("stats = %+v, want bypasses and zero retained bytes", st)
	}
}

func TestCacheDropReleasesBudget(t *testing.T) {
	svc, reqs := testService(t)
	budget := NewBudget(DefaultBudgetBytes)
	sg := alloc.NewStackGroup(0, len(reqs), true)
	c := planBatch(reqs, sg, 2, budget)
	in := NewInterp(svc, c.Reads(0))
	// Read each key once of its two planned reads.
	for i := range reqs {
		if _, err := in.Trace(2*i, &reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 64, 8); err != nil {
			t.Fatal(err)
		}
	}
	if got := budget.left.Load(); got >= DefaultBudgetBytes {
		t.Fatalf("budget untouched after %d inserts", len(reqs))
	}
	c.Drop()
	if got := budget.left.Load(); got != DefaultBudgetBytes {
		t.Fatalf("budget after Drop = %d, want %d returned in full", got, int64(DefaultBudgetBytes))
	}
	// A dropped cache keeps serving correct traces, fresh.
	want := freshTrace(t, svc, &reqs[0], 0, sg.StackBase(0), alloc.PolicySIMR, 8)
	got, err := in.Trace(1, &reqs[0], 0, sg.StackBase(0), alloc.PolicySIMR, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-Drop trace differs from fresh")
	}
	if st := c.Stats(); st.Drops != 1 || st.Bypassed != 1 {
		t.Fatalf("stats = %+v, want 1 drop and 1 bypassed read", st)
	}
}

func TestNilCacheBatchInterpretsFresh(t *testing.T) {
	svc, reqs := testService(t)
	sg := alloc.NewStackGroup(0, 4, true)
	in := NewInterp(svc, nil)
	want, err := svc.TraceBatch(reqs[:4], sg, alloc.PolicySIMR, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The second round reuses the slot's buffers.
	for round := 0; round < 2; round++ {
		got, err := in.Batch(0, reqs[:4], sg, alloc.PolicySIMR, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: fresh Batch differs from TraceBatch", round)
		}
	}
}

// TestCacheConcurrentRequestAndDrop hammers one cache from many
// goroutines reading the same planned keys while Drop fires midway;
// run under -race this is the cache's synchronization proof, and every
// returned trace must still equal the fresh interpretation.
func TestCacheConcurrentRequestAndDrop(t *testing.T) {
	svc, reqs := testService(t)
	budget := NewBudget(DefaultBudgetBytes)
	sg := alloc.NewStackGroup(0, len(reqs), true)
	const workers, rounds = 8, 4

	want := make([][]isa.TraceOp, len(reqs))
	for i := range reqs {
		want[i] = freshTrace(t, svc, &reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 8)
	}
	c := planBatch(reqs, sg, workers*rounds, budget)

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := NewInterp(svc, c.Reads(0))
			for round := 0; round < rounds; round++ {
				for i := range reqs {
					pos := i*workers*rounds + w*rounds + round
					got, err := in.Trace(pos, &reqs[i], i, sg.StackBase(i), alloc.PolicySIMR, 64, 8)
					if err != nil {
						errs[w] = err
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("worker %d round %d req %d: trace differs", w, round, i)
						return
					}
				}
				if w == 0 && round == 1 {
					c.Drop()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := budget.left.Load(); got != DefaultBudgetBytes {
		t.Fatalf("budget after concurrent Drop = %d, want %d (no leak, no double-release)", got, int64(DefaultBudgetBytes))
	}
}

// TestFreshTraceAllocs pins a slot's steady-state fresh interpretation
// to one allocation, the request's heap arena: the trace, call stack,
// context and seed source are all the slot's and reused.
func TestFreshTraceAllocs(t *testing.T) {
	for _, svc := range uservices.NewSuite().Services {
		reqs := svc.Generate(rand.New(rand.NewSource(5)), 16)
		in := NewInterp(svc, nil)
		for i := range reqs { // grow the buffer to the largest trace
			if _, err := in.Trace(i, &reqs[i], 0, alloc.StackRegion, alloc.PolicyCPU, 32, 1); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		n := testing.AllocsPerRun(len(reqs), func() {
			req := &reqs[i%len(reqs)]
			i++
			if _, err := in.Trace(0, req, 0, alloc.StackRegion, alloc.PolicyCPU, 32, 1); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("%s: fresh interpretation allocates %v times, want 1 (the arena)", svc.Name, n)
		}
	}
}

// BenchmarkTraceFresh measures one slot-owned fresh scalar
// interpretation (the path every unshared read takes), cycling over a
// service's requests.
func BenchmarkTraceFresh(b *testing.B) {
	svc := uservices.NewSuite().Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(5)), 64)
	in := NewInterp(svc, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Trace(0, &reqs[i%len(reqs)], 0, alloc.StackRegion, alloc.PolicyCPU, 32, 1); err != nil {
			b.Fatal(err)
		}
	}
}
