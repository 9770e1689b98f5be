// Package seedrng reproduces math/rand.NewSource sequences while
// amortising the seeding cost across repeated streams with the same
// seed. rand.NewSource spends ~2000 multiplications warming up its
// 607-word additive lagged-Fibonacci state, and a study sweep
// interprets many requests more than once (under each architecture's
// thread layout and heap policy), re-seeding from the same request
// seed each time.
//
// The trick: rngSource's outputs ARE its evolving state. Each draw
// computes vec[feed] += vec[tap] and returns the new vec[feed], with
// the feed pointer stepping through all 607 slots per cycle. So after
// the first 607 outputs the generator satisfies the pure recurrence
//
//	o[n] = o[n-607] + o[n-273]  (mod 2^64)
//
// with no reference to the seeded state at all. Recording the first
// 607 outputs of a real rand.NewSource(seed) once therefore lets any
// number of later streams replay them and then continue the recurrence
// over their own output ring — bit-identical to a fresh source, with
// seeding paid once per distinct seed.
//
// A Table records prefixes for a fixed set of seeds, chosen by its
// owner (a sweep records the requests it interprets more than once)
// and dropped with it; the package holds no process-wide state.
package seedrng

import (
	"math/rand"
	"sync"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// prefix holds the first rngLen outputs of rand.NewSource(seed).
type prefix [rngLen]uint64

// record is one seed's prefix, filled by its first reader.
type record struct {
	once sync.Once
	pre  prefix
}

// Table holds the output prefixes of a fixed seed set. The set is fixed
// at construction, so lookups take no lock, and each prefix is recorded
// once, by the first Source seeded with it. Safe for concurrent use.
type Table struct{ recs map[int64]*record }

// NewTable returns a table that records the prefix of each of seeds on
// first use.
func NewTable(seeds []int64) *Table {
	recs := make([]record, len(seeds))
	t := &Table{recs: make(map[int64]*record, len(seeds))}
	for i, seed := range seeds {
		t.recs[seed] = &recs[i]
	}
	return t
}

// Source is a rand.Source64 emitting exactly the sequence of
// rand.NewSource(seed) for the seed it was last given. It replays its
// table's prefix for the seeds the table holds and re-seeds one
// math/rand source in place for the rest, so re-seeding a Source
// allocates nothing. Not safe for concurrent use (same contract as
// math/rand sources).
type Source struct {
	tab *Table
	pre *prefix        // prefix being replayed; nil while std serves
	std rand.Source64  // math/rand source for seeds tab does not hold
	vec [rngLen]uint64 // ring of the last rngLen outputs
	n   int
}

// NewSource returns a Source seeded with seed that replays tab's
// prefixes (tab may be nil).
func NewSource(tab *Table, seed int64) *Source {
	s := &Source{tab: tab}
	s.Seed(seed)
	return s
}

// Seed restarts the stream from the given seed.
func (s *Source) Seed(seed int64) {
	s.n = 0
	s.pre = nil
	var r *record
	if s.tab != nil {
		r = s.tab.recs[seed]
	}
	if r == nil {
		s.reseed(seed)
		return
	}
	r.once.Do(func() {
		std := s.reseed(seed)
		for i := range r.pre {
			r.pre[i] = std.Uint64()
		}
	})
	s.pre = &r.pre
}

// reseed points the math/rand source at seed's stream.
func (s *Source) reseed(seed int64) rand.Source64 {
	if s.std == nil {
		s.std = rand.NewSource(seed).(rand.Source64)
	} else {
		s.std.Seed(seed)
	}
	return s.std
}

// Uint64 returns the next value of the underlying sequence.
func (s *Source) Uint64() uint64 {
	if s.pre == nil {
		return s.std.Uint64()
	}
	i := s.n % rngLen
	var x uint64
	if s.n < rngLen {
		x = s.pre[s.n]
	} else {
		// o[n-607] sits in the slot being overwritten.
		x = s.vec[i] + s.vec[(i+rngLen-rngTap)%rngLen]
	}
	s.vec[i] = x
	s.n++
	return x
}

// Int63 returns the next value masked to 63 bits, as rngSource does.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }
