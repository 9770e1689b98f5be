package seedrng

import (
	"math/rand"
	"sync"
	"testing"
)

var testSeeds = []int64{0, 1, -1, 42, 1 << 40, -987654321}

// sources returns a Source for seed with and without a table holding
// the seed, so every property below holds on both the replay and the
// math/rand path.
func sources(seed int64) map[string]*Source {
	return map[string]*Source{
		"table":    NewSource(NewTable([]int64{seed}), seed),
		"no table": NewSource(nil, seed),
	}
}

// TestMatchesMathRand proves bit-identity with math/rand far past the
// 607-output recorded prefix, across the derived Rand methods the
// service programs actually use.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds {
		for name, src := range sources(seed) {
			want := rand.New(rand.NewSource(seed))
			got := rand.New(src)
			for i := 0; i < 3*rngLen; i++ {
				switch i % 4 {
				case 0:
					if g, w := got.Int63(), want.Int63(); g != w {
						t.Fatalf("%s seed %d draw %d: Int63 = %d, want %d", name, seed, i, g, w)
					}
				case 1:
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("%s seed %d draw %d: Uint64 = %d, want %d", name, seed, i, g, w)
					}
				case 2:
					if g, w := got.Intn(1000), want.Intn(1000); g != w {
						t.Fatalf("%s seed %d draw %d: Intn = %d, want %d", name, seed, i, g, w)
					}
				case 3:
					if g, w := got.Float64(), want.Float64(); g != w {
						t.Fatalf("%s seed %d draw %d: Float64 = %v, want %v", name, seed, i, g, w)
					}
				}
			}
		}
	}
}

// TestReplayIndependence checks that two streams of the same seed do
// not disturb each other (the recorded prefix is shared read-only).
func TestReplayIndependence(t *testing.T) {
	tab := NewTable([]int64{7})
	a, b := NewSource(tab, 7), NewSource(tab, 7)
	ref := rand.New(rand.NewSource(7))
	for i := 0; i < 2*rngLen; i++ {
		w := ref.Uint64()
		if g := a.Uint64(); g != w {
			t.Fatalf("stream a draw %d: %d != %d", i, g, w)
		}
		if i%3 == 0 { // advance b at a different rate
			b.Uint64()
		}
	}
}

// TestSeedRestart verifies Source.Seed restarts the sequence.
func TestSeedRestart(t *testing.T) {
	for name, s := range sources(5) {
		r := rand.New(s)
		first := make([]uint64, rngLen+10)
		for i := range first {
			first[i] = r.Uint64()
		}
		r.Seed(5)
		for i := range first {
			if g := r.Uint64(); g != first[i] {
				t.Fatalf("%s: draw %d after re-seed: %d != %d", name, i, g, first[i])
			}
		}
	}
}

// TestReseedMidStream re-seeds one reused Source (and its rand.Rand)
// part-way through each stream, alternating seeds the table holds with
// seeds it does not: every new seed must emit exactly what a fresh
// rand.New(rand.NewSource(seed)) would.
func TestReseedMidStream(t *testing.T) {
	for _, tab := range []*Table{nil, NewTable(testSeeds[:3])} {
		r := rand.New(NewSource(tab, 99))
		for round := 0; round < 3; round++ {
			for k, seed := range testSeeds {
				r.Seed(seed)
				want := rand.New(rand.NewSource(seed))
				// Stop at a different depth each time, before and after
				// the recorded prefix runs out.
				for i := 0; i < 100+(k+round)*300; i++ {
					if g, w := r.Int63(), want.Int63(); g != w {
						t.Fatalf("table=%v round %d seed %d draw %d: %d != %d", tab != nil, round, seed, i, g, w)
					}
				}
			}
		}
	}
}

// TestTableConcurrent shares one Table among goroutines that record and
// replay the same seeds at once; under -race it proves the table needs
// no lock beyond each record's once.
func TestTableConcurrent(t *testing.T) {
	seeds := []int64{3, 4, 5, 6}
	tab := NewTable(seeds)
	want := make([][]uint64, len(seeds))
	for i, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		want[i] = make([]uint64, 2*rngLen)
		for j := range want[i] {
			want[i][j] = ref.Uint64()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := NewSource(tab, 0)
			for round := 0; round < 4; round++ {
				for k := range seeds {
					i := (k + g) % len(seeds)
					src.Seed(seeds[i])
					for j, w := range want[i] {
						if v := src.Uint64(); v != w {
							t.Errorf("goroutine %d seed %d draw %d: %d != %d", g, seeds[i], j, v, w)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReseedAllocs pins re-seeding a reused Source to zero allocations
// on both paths once the table's prefix is recorded.
func TestReseedAllocs(t *testing.T) {
	src := NewSource(NewTable([]int64{8}), 8)
	for _, seed := range []int64{8, 9} {
		if n := testing.AllocsPerRun(50, func() { src.Seed(seed); src.Uint64() }); n != 0 {
			t.Fatalf("re-seeding with %d allocates %v times, want 0", seed, n)
		}
	}
}
