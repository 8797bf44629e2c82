package coverage

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
)

// TestEngineCoversAtMostMatchesCount: the bounded check answers exactly
// CoveredSet(...).Count() <= limit, for random coverage tables, random
// known sets (counted as covered, sound or not), limits from below zero to
// past the list, at 1, 2 and 8 workers, with and without the memo cache.
// Known sets are subsets of the true cover when the cache is on, as
// every learner's are, since a memoized set answers for any known set.
func TestEngineCoversAtMostMatchesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const nCands, nEx = 12, 70
	rc := newRandomCoverage(rng, nCands, 1, nEx)
	cands := boundCandidates(nCands)
	neg := boundAtoms("neg", nEx)
	for _, workers := range []int{1, 2, 8} {
		for _, cached := range []bool{false, true} {
			var cache *Cache
			if cached {
				cache = NewCache(0)
			}
			bounded := NewEngine(perPair(rc.fn), newNop, workers, cache, nil)
			counting := NewEngine(perPair(rc.fn), newNop, workers, nil, nil)
			for trial := 0; trial < 200; trial++ {
				ci := rng.Intn(nCands)
				c := cands[ci].Clause
				var known *Bitset
				if rng.Intn(4) > 0 {
					known = New(nEx)
					for j := 0; j < nEx; j++ {
						if rng.Intn(3) == 0 && (!cached || rc.neg[ci][j]) {
							known.Set(j)
						}
					}
				}
				limit := rng.Intn(nEx+3) - 1
				want := counting.CoveredSet(c, neg, known).Count() <= limit
				if got := bounded.CoversAtMost(c, neg, known, limit); got != want {
					t.Fatalf("workers=%d cached=%v candidate %d limit %d known %v: CoversAtMost = %v, Count <= limit = %v",
						workers, cached, ci, limit, known, got, want)
				}
			}
		}
	}
}

// TestEngineCoversAtMostStopsEarly: when the examples at the head of the
// list are covered, the scan stops at the test that pushes the count past
// the limit: exactly limit+1 tests on one worker, and far fewer than the
// list on eight. Known-covered examples count without a test.
func TestEngineCoversAtMostStopsEarly(t *testing.T) {
	exs := exampleAtoms(400)
	c := logic.MustParseClause("h(X) :- p(X).")
	var tests atomic.Int64
	all := func(*logic.Clause, logic.Atom) bool { tests.Add(1); return true }
	if NewEngine(perPair(all), newNop, 1, nil, nil).CoversAtMost(c, exs, nil, 2) {
		t.Fatal("a clause covering every example covers at most 2")
	}
	if got := tests.Load(); got != 3 {
		t.Errorf("one worker ran %d tests, want 3: the third covered example decides", got)
	}
	tests.Store(0)
	if NewEngine(perPair(all), newNop, 8, nil, nil).CoversAtMost(c, exs, nil, 2) {
		t.Fatal("a clause covering every example covers at most 2 on eight workers")
	}
	if got := tests.Load(); got < 3 || got >= int64(len(exs))/4 {
		t.Errorf("eight workers ran %d tests, want at least 3 and well under %d", got, len(exs))
	}
	// Two known-covered examples leave room for one tested before the
	// scan stops; three stop it before any test.
	for knowns, wantTests := range map[int]int64{2: 1, 3: 0} {
		known := New(len(exs))
		for j := 0; j < knowns; j++ {
			known.Set(100 + j)
		}
		tests.Store(0)
		reg := obs.NewRegistry()
		if NewEngine(perPair(all), newNop, 1, nil, obs.NewRun(nil, reg)).CoversAtMost(c, exs, known, 2) {
			t.Fatalf("%d knowns: the clause covers at most 2", knowns)
		}
		if got := tests.Load(); got != wantTests {
			t.Errorf("%d knowns: ran %d tests, want %d", knowns, got, wantTests)
		}
		if got := reg.Get(obs.CCoverageSkipped); got != int64(knowns) {
			t.Errorf("%d knowns: coverage_tests_skipped = %d, want %d", knowns, got, knowns)
		}
	}
}

// TestEngineCoversAtMostMemoizesOnlyCompleteScans: a stopped scan leaves
// no memo entry, so CoveredSet evaluates in full afterwards; a complete
// one is memoized, so CoveredSet and later checks answer from the cache
// whatever their limit. Neither touches the scoring counters.
func TestEngineCoversAtMostMemoizesOnlyCompleteScans(t *testing.T) {
	exs := exampleAtoms(40)
	var f fakeCover
	reg := obs.NewRegistry()
	en := NewEngine(perPair(f.fn), newNop, 2, NewCache(0), obs.NewRun(nil, reg))
	c := logic.MustParseClause("h(X) :- p(X).") // covers the 20 odd examples
	if en.CoversAtMost(c, exs, nil, 5) {
		t.Fatal("covers at most 5 of 40 with 20 covered")
	}
	if en.cache.Len() != 0 {
		t.Fatalf("a stopped scan left %d memo entries", en.cache.Len())
	}
	before := f.calls.Load()
	if n := en.CoveredSet(c, exs, nil).Count(); n != 20 {
		t.Fatalf("CoveredSet after a stopped check counts %d, want 20", n)
	}
	if f.calls.Load()-before != 40 {
		t.Fatalf("CoveredSet after a stopped check ran %d tests, want all 40", f.calls.Load()-before)
	}

	d := logic.MustParseClause("h(X) :- p(X), q(X).") // covers the 20 even examples
	if !en.CoversAtMost(d, exs, nil, 20) {
		t.Fatal("covers at most 20 of 40 with 20 covered")
	}
	before = f.calls.Load()
	if n := en.CoveredSet(d, exs, nil).Count(); n != 20 {
		t.Fatalf("CoveredSet after a complete check counts %d, want 20", n)
	}
	if en.CoversAtMost(d, exs, nil, 19) || !en.CoversAtMost(d, exs, nil, 25) {
		t.Fatal("memoized answers disagree with the count of 20")
	}
	if f.calls.Load() != before {
		t.Fatalf("a complete check was not memoized: %d more tests", f.calls.Load()-before)
	}
	if hits := reg.Get(obs.CCoverageCacheHits); hits != 3 {
		t.Errorf("coverage_cache_hits = %d, want 3", hits)
	}
	for _, k := range []obs.Counter{obs.CCandidatesScored, obs.CCandidatesPruned, obs.CPruneSkippedPairs, obs.CPruneWastedPairs} {
		if v := reg.Get(k); v != 0 {
			t.Errorf("%v = %d after bounded checks, want 0: they are not candidate scoring", k, v)
		}
	}
}

// TestEngineSetDigestMemo: the digest memo returns SetKey's value, from
// the memo on a repeat (no hashing, no allocation), for a list holding
// the same atoms in another slice, and afresh for a reused backing array
// holding other atoms, for a prefix, for a list whose first atom is the
// same but one later atom is not, and for an atom whose predicate
// changed. An engine whose example slice is reused for other atoms
// therefore misses its memo cache instead of answering for the old ones.
func TestEngineSetDigestMemo(t *testing.T) {
	var m digestMemo
	exs := exampleAtoms(50)
	want := SetKey(exs)
	if got := m.key(exs); got != want {
		t.Fatalf("first digest %q, want SetKey's %q", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { m.key(exs) }); n != 0 {
		t.Errorf("a memoized digest allocates %.0f times, want 0: it must not hash again", n)
	}
	if got := m.key(append([]logic.Atom(nil), exs...)); got != want {
		t.Errorf("same atoms in another slice: %q, want %q", got, want)
	}
	buf := append([]logic.Atom(nil), exs...)
	m.key(buf)
	for i := range buf {
		buf[i] = logic.GroundAtom("e", fmt.Sprint(i+1000))
	}
	if got, want := m.key(buf), SetKey(buf); got != want {
		t.Errorf("reused backing array: %q, want the new atoms' %q", got, want)
	}
	if got, want := m.key(exs[:30]), SetKey(exs[:30]); got != want {
		t.Errorf("prefix: %q, want %q", got, want)
	}
	mixed := append([]logic.Atom(nil), exs...)
	mixed[25] = logic.GroundAtom("e", "25")
	if got, want := m.key(mixed), SetKey(mixed); got != want || m.key(exs) != SetKey(exs) {
		t.Errorf("one atom replaced mid-list by an equal one: %q, want %q", got, want)
	}
	mixed[25] = logic.GroundAtom("e", "x")
	if got, want := m.key(mixed), SetKey(mixed); got != want {
		t.Errorf("one atom replaced mid-list: %q, want %q", got, want)
	}
	renamed := append([]logic.Atom(nil), exs...)
	renamed[49].Pred = "f"
	if got, want := m.key(renamed), SetKey(renamed); got != want {
		t.Errorf("predicate changed: %q, want %q", got, want)
	}
	if got := m.key(nil); got != SetKey(nil) {
		t.Errorf("empty list: %q, want %q", got, SetKey(nil))
	}

	var f fakeCover
	en := NewEngine(perPair(f.fn), newNop, 1, NewCache(0), nil)
	c := logic.MustParseClause("h(X) :- p(X).")
	list := exampleAtoms(10) // "0".."9": the odd ones are covered
	if n := en.CoveredSet(c, list, nil).Count(); n != 5 {
		t.Fatalf("first list: %d covered, want 5", n)
	}
	for i := range list {
		list[i] = logic.GroundAtom("e", fmt.Sprint(2*i+1)) // every one odd
	}
	if n := en.CoveredSet(c, list, nil).Count(); n != 10 {
		t.Errorf("reused slice with other atoms: %d covered, want 10 (a stale memo entry answered)", n)
	}
}
