package coverage

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/obs"
)

// fakeCover covers example i iff the clause's body length has the same
// parity as i, and counts invocations so tests can observe cache behavior.
type fakeCover struct{ calls atomic.Int64 }

func (f *fakeCover) fn(c *logic.Clause, e logic.Atom) bool {
	f.calls.Add(1)
	i, _ := strconv.Atoi(e.Args[0].Name)
	return i%2 == len(c.Body)%2
}

// nopProbe is the probe of oracles that accumulate nothing.
type nopProbe struct{}

func (nopProbe) Publish() {}

func newNop() nopProbe { return nopProbe{} }

// perPair adapts a (clause, example) oracle to the engine's per-clause
// CoverFunc.
func perPair(f func(c *logic.Clause, e logic.Atom) bool) CoverFunc[nopProbe] {
	return func(c *logic.Clause) func(nopProbe, logic.Atom) bool {
		return func(_ nopProbe, e logic.Atom) bool { return f(c, e) }
	}
}

func exampleAtoms(n int) []logic.Atom {
	out := make([]logic.Atom, n)
	for i := range out {
		out[i] = logic.GroundAtom("e", strconv.Itoa(i))
	}
	return out
}

func TestEngineCoveredSetParallelMatchesSequential(t *testing.T) {
	exs := exampleAtoms(97)
	c := logic.MustParseClause("h(X) :- p(X), q(X).")
	var f fakeCover
	seq := NewEngine(perPair(f.fn), newNop, 1, nil, nil).CoveredSet(c, exs, nil)
	par := NewEngine(perPair(f.fn), newNop, 8, nil, nil).CoveredSet(c, exs, nil)
	if !seq.Equal(par) {
		t.Fatal("parallel and sequential CoveredSet disagree")
	}
	for i := range exs {
		if seq.Get(i) != (i%2 == 0) {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

func TestEngineMemoCache(t *testing.T) {
	exs := exampleAtoms(40)
	var f fakeCover
	reg := obs.NewRegistry()
	en := NewEngine(perPair(f.fn), newNop, 2, NewCache(0), obs.NewRun(nil, reg))

	c1 := logic.MustParseClause("h(X) :- p(X).")
	first := en.CoveredSet(c1, exs, nil)
	if got := f.calls.Load(); got != 40 {
		t.Fatalf("first call ran %d tests, want 40", got)
	}
	// An alpha-variant of the same clause must hit the cache.
	c2 := logic.MustParseClause("h(Y) :- p(Y).")
	second := en.CoveredSet(c2, exs, nil)
	if got := f.calls.Load(); got != 40 {
		t.Fatalf("alpha-variant recomputed coverage (%d tests)", got)
	}
	if !first.Equal(second) {
		t.Fatal("cached result differs")
	}
	if reg.Get(obs.CCoverageCacheHits) != 1 || reg.Get(obs.CCoverageCacheMisses) != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1",
			reg.Get(obs.CCoverageCacheHits), reg.Get(obs.CCoverageCacheMisses))
	}
	// Mutating the returned set must not corrupt the cached copy (c1 has
	// one body literal, so it covers odd indexes only — bit 2 is clear).
	second.Set(2)
	third := en.CoveredSet(c1, exs, nil)
	if third.Get(2) {
		t.Fatal("caller mutation leaked into the cache")
	}
	// A different example set must not alias the cached entry.
	sub := exs[:10]
	subSet := en.CoveredSet(c1, sub, nil)
	if subSet.Len() != 10 {
		t.Fatalf("subset result len = %d", subSet.Len())
	}
}

func TestEngineKnownShortcut(t *testing.T) {
	exs := exampleAtoms(30)
	c := logic.MustParseClause("h(X) :- p(X), q(X).")
	known := New(30)
	for i := 0; i < 30; i += 2 {
		known.Set(i) // evens are truly covered, so the shortcut is sound
	}
	var f fakeCover
	reg := obs.NewRegistry()
	en := NewEngine(perPair(f.fn), newNop, 1, nil, obs.NewRun(nil, reg))
	out := en.CoveredSet(c, exs, known)
	if f.calls.Load() != 15 {
		t.Fatalf("ran %d tests, want 15 (skipping knowns)", f.calls.Load())
	}
	if reg.Get(obs.CCoverageSkipped) != 15 {
		t.Fatalf("skipped counter = %d, want 15", reg.Get(obs.CCoverageSkipped))
	}
	for i := 0; i < 30; i++ {
		if out.Get(i) != (i%2 == 0) {
			t.Fatalf("bit %d wrong", i)
		}
	}
	// A known set shorter than the examples degrades to extra tests, not a
	// panic (the seed implementation crashed in the worker goroutine here).
	shortKnown := New(5)
	shortKnown.Set(0)
	if got := NewEngine(perPair(f.fn), newNop, 4, nil, nil).CoveredSet(c, exs, shortKnown); got.Len() != 30 {
		t.Fatalf("short-known result len = %d", got.Len())
	}
}

func TestEngineScoreBatch(t *testing.T) {
	pos := exampleAtoms(20)
	neg := exampleAtoms(20)
	cands := []Candidate{
		{Clause: logic.MustParseClause("h(X) :- p(X), q(X).")}, // covers evens: p=10 n=10
		{Clause: logic.MustParseClause("h(X) :- p(X).")},       // covers odds: p=10 n=10
	}
	for _, workers := range []int{1, 8} {
		var f fakeCover
		scores := NewEngine(perPair(f.fn), newNop, workers, nil, nil).ScoreBatch(cands, pos, neg, NoBound, 0)
		if len(scores) != 2 {
			t.Fatalf("workers=%d: %d scores", workers, len(scores))
		}
		for i, s := range scores {
			if s.Pruned || s.P != 10 || s.N != 10 {
				t.Fatalf("workers=%d cand=%d: p=%d n=%d pruned=%v", workers, i, s.P, s.N, s.Pruned)
			}
			if s.Pos.Count() != s.P || s.Neg.Count() != s.N {
				t.Fatalf("workers=%d cand=%d: bitset counts disagree", workers, i)
			}
		}
	}
}

func TestEngineScoreBatchPrunes(t *testing.T) {
	pos := exampleAtoms(20)
	neg := exampleAtoms(40)
	var f fakeCover
	reg := obs.NewRegistry()
	en := NewEngine(perPair(f.fn), newNop, 1, nil, obs.NewRun(nil, reg))
	// The candidate scores p−n = 10−20 = −10; a floor of 5 means the scan
	// may stop as soon as p−n ≤ 5, and the pruned payload is canonical:
	// an empty negative side, regardless of how far the scan got.
	scores := en.ScoreBatch([]Candidate{
		{Clause: logic.MustParseClause("h(X) :- p(X).")},
	}, pos, neg, 5, 0)
	s := scores[0]
	if !s.Pruned {
		t.Fatal("candidate not pruned")
	}
	if s.P != 10 {
		t.Fatalf("p = %d", s.P)
	}
	if s.N != 0 || s.Neg.Count() != 0 {
		t.Fatalf("pruned payload not canonical: n=%d negbits=%d", s.N, s.Neg.Count())
	}
	if calls := f.calls.Load(); calls >= int64(len(pos)+len(neg)) {
		t.Fatalf("ran %d tests, want an abandoned negative scan", calls)
	}
	if reg.Get(obs.CCandidatesPruned) != 1 || reg.Get(obs.CCandidatesScored) != 1 {
		t.Fatalf("pruned=%d scored=%d", reg.Get(obs.CCandidatesPruned), reg.Get(obs.CCandidatesScored))
	}
	// With p ≤ bound the negative scan must not run at all.
	f.calls.Store(0)
	scores = en.ScoreBatch([]Candidate{
		{Clause: logic.MustParseClause("h(X) :- p(X).")},
	}, pos, neg, 15, 0)
	if !scores[0].Pruned || scores[0].N != 0 {
		t.Fatalf("pos-bound prune: pruned=%v n=%d", scores[0].Pruned, scores[0].N)
	}
	if f.calls.Load() != int64(len(pos)) {
		t.Fatalf("ran %d tests, want only the %d positives", f.calls.Load(), len(pos))
	}
}

// TestEngineScoreBatchKeepBound: with keep armed, a batch prunes every
// candidate whose score falls strictly below the keep best completed
// scores — equal scores survive, since an engine caller's tie-break must
// stay free to keep them — and the pruning decisions are identical at
// every worker count, because the bound only tightens at candidate
// boundaries and prunedness depends only on final counts.
func TestEngineScoreBatchKeepBound(t *testing.T) {
	pos := exampleAtoms(20)
	neg := make([]logic.Atom, 20)
	for i := range neg {
		neg[i] = logic.GroundAtom("neg", strconv.Itoa(i))
	}
	// Coverage by first body predicate: "p" scores 20−0, "q" covers too
	// few positives to reach the bound, "r" covers everything and gets
	// abandoned on its first covered negative, "s" ties the best exactly.
	cover := func(c *logic.Clause, e logic.Atom) bool {
		isNeg := e.Pred == "neg"
		switch c.Body[0].Pred {
		case "p":
			return !isNeg
		case "q":
			i, _ := strconv.Atoi(e.Args[0].Name)
			return !isNeg && i < 10
		case "s":
			return !isNeg
		default: // "r"
			return true
		}
	}
	cands := []Candidate{
		{Clause: logic.MustParseClause("h(X) :- p(X).")}, // 20−0 = 20: completes, arms the bound
		{Clause: logic.MustParseClause("h(X) :- q(X).")}, // p = 10 < 20: pruned before any negative test
		{Clause: logic.MustParseClause("h(X) :- r(X).")}, // 20−20: abandoned mid-scan
		{Clause: logic.MustParseClause("h(X) :- s(X).")}, // 20−0 = 20: ties the bound, must complete
	}
	var want []Score
	for _, workers := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		got := NewEngine(perPair(cover), newNop, workers, nil, obs.NewRun(nil, reg)).ScoreBatch(cands, pos, neg, NoBound, 1)
		if got[0].Pruned || got[0].P != 20 || got[0].N != 0 {
			t.Fatalf("workers=%d: candidate 0 = %+v, want complete 20/0", workers, got[0])
		}
		if !got[1].Pruned || !got[2].Pruned {
			t.Fatalf("workers=%d: candidates 1,2 pruned = %v,%v, want both", workers, got[1].Pruned, got[2].Pruned)
		}
		for _, i := range []int{1, 2} {
			if got[i].N != 0 || got[i].Neg.Count() != 0 {
				t.Fatalf("workers=%d: pruned payload not canonical: %+v", workers, got[i])
			}
		}
		if got[3].Pruned || got[3].P != 20 || got[3].N != 0 {
			t.Fatalf("workers=%d: tie candidate = %+v, want complete (strict bound)", workers, got[3])
		}
		if reg.Get(obs.CCandidatesPruned) != 2 {
			t.Fatalf("workers=%d: pruned counter = %d, want 2", workers, reg.Get(obs.CCandidatesPruned))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i].Pruned != want[i].Pruned || got[i].P != want[i].P || got[i].N != want[i].N ||
				!got[i].Pos.Equal(want[i].Pos) || !got[i].Neg.Equal(want[i].Neg) {
				t.Fatalf("workers=%d: candidate %d diverges from workers=1", workers, i)
			}
		}
	}
}

// TestEngineScoreBatchFullUtilization pins the fix for the old
// inner/outer worker split (inner = workers / len(cands)), which left
// workers idle whenever the candidate count did not divide the pool: 8
// workers over 3 candidates ran at most 6 tests concurrently. The
// flattened sharded fan-out must get all 8 workers testing at once.
func TestEngineScoreBatchFullUtilization(t *testing.T) {
	const workers = 8
	pos := exampleAtoms(64)
	cands := []Candidate{
		{Clause: logic.MustParseClause("h(X) :- p(X).")},
		{Clause: logic.MustParseClause("h(X) :- q(X).")},
		{Clause: logic.MustParseClause("h(X) :- r(X).")},
	}
	var inFlight, peak atomic.Int64
	var timedOut atomic.Bool
	var full sync.Once
	release := make(chan struct{})
	cover := func(c *logic.Clause, e logic.Atom) bool {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		if cur == workers {
			full.Do(func() { close(release) })
		}
		select {
		case <-release:
		case <-time.After(20 * time.Second):
			timedOut.Store(true)
		}
		return false
	}
	NewEngine(perPair(cover), newNop, workers, nil, nil).ScoreBatch(cands, pos, nil, NoBound, 0)
	if timedOut.Load() {
		t.Fatalf("pool never reached %d concurrent coverage tests (peak %d)", workers, peak.Load())
	}
	if peak.Load() != workers {
		t.Fatalf("peak concurrency = %d, want %d", peak.Load(), workers)
	}
}

func TestEngineScoreBatchDoesNotCachePartialNeg(t *testing.T) {
	pos := exampleAtoms(20)
	neg := exampleAtoms(40)
	var f fakeCover
	en := NewEngine(perPair(f.fn), newNop, 1, NewCache(0), nil)
	c := logic.MustParseClause("h(X) :- p(X).")
	pruned := en.ScoreBatch([]Candidate{{Clause: c}}, pos, neg, 5, 0)[0]
	if !pruned.Pruned {
		t.Fatal("setup: candidate not pruned")
	}
	// Re-scoring without a bound must produce the full negative cover, not
	// the memoized partial scan.
	full := en.ScoreBatch([]Candidate{{Clause: c}}, pos, neg, NoBound, 0)[0]
	if full.Pruned || full.N != 20 {
		t.Fatalf("full rescore: pruned=%v n=%d, want n=20", full.Pruned, full.N)
	}
	// And now the complete result is cached: a third scoring runs no tests.
	before := f.calls.Load()
	again := en.ScoreBatch([]Candidate{{Clause: c}}, pos, neg, NoBound, 0)[0]
	if f.calls.Load() != before {
		t.Fatal("complete result was not memoized")
	}
	if again.N != 20 || again.P != 10 {
		t.Fatalf("cached rescore: p=%d n=%d", again.P, again.N)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	ca := NewCache(2)
	a := New(4)
	a.Set(0)
	ca.Put("k1", a)
	ca.Put("k2", a)
	if _, ok := ca.Get("k1"); !ok { // touch k1 so k2 is the LRU victim
		t.Fatal("k1 missing")
	}
	ca.Put("k3", a)
	if _, ok := ca.Get("k2"); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := ca.Get("k1"); !ok {
		t.Error("recently used entry evicted")
	}
	if ca.Len() != 2 {
		t.Errorf("Len = %d", ca.Len())
	}
}

// TestEnginePreparesEachClauseOncePerRound: the CoverFunc factory runs
// once per candidate per call — never once per example, and once for a
// ScoreBatch candidate's positive and negative rounds together — and not
// at all for a round whose examples are all known covered.
func TestEnginePreparesEachClauseOncePerRound(t *testing.T) {
	var prepared, tests atomic.Int64
	cover := func(c *logic.Clause) func(nopProbe, logic.Atom) bool {
		prepared.Add(1)
		return func(_ nopProbe, e logic.Atom) bool {
			tests.Add(1)
			return atomIndex(e)%2 == len(c.Body)%2
		}
	}
	pos, neg := exampleAtoms(50), exampleAtoms(40)
	allPos := New(len(pos))
	for i := range pos {
		allPos.Set(i)
	}
	cands := []Candidate{
		{Clause: logic.MustParseClause("h(X) :- p(X).")},
		{Clause: logic.MustParseClause("h(X) :- p(X), q(X).")},
		{Clause: logic.MustParseClause("h(X) :- r(X)."), KnownPos: allPos},
	}
	for _, workers := range []int{1, 4} {
		prepared.Store(0)
		tests.Store(0)
		en := NewEngine(cover, newNop, workers, nil, nil)
		en.CoveredSet(cands[0].Clause, pos, nil)
		if prepared.Load() != 1 || tests.Load() != 50 {
			t.Fatalf("workers=%d: CoveredSet prepared %d clauses for %d tests, want 1 for 50",
				workers, prepared.Load(), tests.Load())
		}
		prepared.Store(0)
		tests.Store(0)
		en.ScoreBatch(cands, pos, neg, NoBound, 0)
		// Positives: two candidates (the third is fully known); negatives:
		// all three, one flattened round each. The first two reuse their
		// positive round's test.
		if prepared.Load() != 3 || tests.Load() != 2*50+3*40 {
			t.Fatalf("workers=%d: ScoreBatch prepared %d clauses for %d tests, want 3 for %d",
				workers, prepared.Load(), tests.Load(), 2*50+3*40)
		}
		prepared.Store(0)
		en.ScoreBatch(cands, pos, neg, NoBound, 1)
		if prepared.Load() > 3 {
			t.Fatalf("workers=%d: bounded ScoreBatch prepared %d clauses, want at most 3", workers, prepared.Load())
		}
	}
}

// TestScoreBatchPreparesEachCandidateOnce: a candidate tested in both its
// positive and negative rounds is prepared once per ScoreBatch, bounded or
// not, at Parallelism 1 and 4 with the memo cache on and off, and the
// scores are the same in every configuration and exact where not pruned.
func TestScoreBatchPreparesEachCandidateOnce(t *testing.T) {
	pos, neg := exampleAtoms(60), exampleAtoms(45)
	var cands []Candidate
	for _, body := range []string{"p(X)", "p(X), q(X)", "r(X), q(X), s(X)", "t(X), u(X), v(X), w(X)"} {
		cands = append(cands, Candidate{Clause: logic.MustParseClause("h(X) :- " + body + ".")})
	}
	covers := func(c *logic.Clause, e logic.Atom) bool { return atomIndex(e)%(len(c.Body)+1) != 0 }
	type call struct{ floor, keep int }
	calls := []call{{NoBound, 0}, {NoBound, 2}, {10, 1}}
	var want [][]Score
	for _, workers := range []int{1, 4} {
		for _, cached := range []bool{false, true} {
			var mu sync.Mutex
			prepared := map[string]int{}
			cover := func(c *logic.Clause) func(nopProbe, logic.Atom) bool {
				mu.Lock()
				prepared[c.String()]++
				mu.Unlock()
				return func(_ nopProbe, e logic.Atom) bool { return covers(c, e) }
			}
			for k, cl := range calls {
				var cache *Cache
				if cached {
					cache = NewCache(64)
				}
				clear(prepared)
				scores := NewEngine(cover, newNop, workers, cache, nil).ScoreBatch(cands, pos, neg, cl.floor, cl.keep)
				for _, c := range cands {
					if n := prepared[c.Clause.String()]; n != 1 {
						t.Errorf("workers=%d cache=%v floor=%d keep=%d: %v prepared %d times, want once",
							workers, cached, cl.floor, cl.keep, c.Clause, n)
					}
				}
				if len(want) <= k {
					want = append(want, scores)
				}
				for i, s := range scores {
					w := want[k][i]
					if s.P != w.P || s.N != w.N || s.Pruned != w.Pruned || !s.Pos.Equal(w.Pos) || !s.Neg.Equal(w.Neg) {
						t.Errorf("workers=%d cache=%v floor=%d keep=%d: candidate %d scores p=%d n=%d pruned=%v, first configuration p=%d n=%d pruned=%v",
							workers, cached, cl.floor, cl.keep, i, s.P, s.N, s.Pruned, w.P, w.N, w.Pruned)
					}
					if s.Pruned {
						continue
					}
					p, n := 0, 0
					for _, e := range pos {
						if covers(cands[i].Clause, e) {
							p++
						}
					}
					for _, e := range neg {
						if covers(cands[i].Clause, e) {
							n++
						}
					}
					if s.P != p || s.N != n {
						t.Errorf("workers=%d cache=%v floor=%d keep=%d: candidate %d scores p=%d n=%d, want p=%d n=%d",
							workers, cached, cl.floor, cl.keep, i, s.P, s.N, p, n)
					}
				}
			}
		}
	}
}

// countProbe counts the tests run on it; Publish moves the count into the
// shared total, as a store prober moves its statistics into the run.
type countProbe struct {
	n         int64
	published *atomic.Int64
	inUse     atomic.Bool
}

func (p *countProbe) Publish() {
	p.published.Add(p.n)
	p.n = 0
}

// TestEngineProbesPublishEveryTest: every test runs on a probe one worker
// holds alone, and every probe is published before the call returns, so
// the published total is exactly the number of tests run — including
// negative scans the bound aborts mid-shard — at every worker count.
func TestEngineProbesPublishEveryTest(t *testing.T) {
	var published, tests atomic.Int64
	var shared atomic.Int64 // tests that found their probe in use
	cover := func(c *logic.Clause) func(*countProbe, logic.Atom) bool {
		return func(p *countProbe, e logic.Atom) bool {
			if p.inUse.Swap(true) {
				shared.Add(1)
			}
			defer p.inUse.Store(false)
			p.n++
			tests.Add(1)
			return atomIndex(e)%3 != 0 || len(c.Body) == 1
		}
	}
	newProbe := func() *countProbe { return &countProbe{published: &published} }
	pos, neg := exampleAtoms(60), exampleAtoms(80)
	cands := []Candidate{
		{Clause: logic.MustParseClause("h(X) :- p(X).")},
		{Clause: logic.MustParseClause("h(X) :- p(X), q(X).")},
		{Clause: logic.MustParseClause("h(X) :- p(X), q(X), r(X).")},
	}
	for _, workers := range []int{1, 4} {
		published.Store(0)
		tests.Store(0)
		en := NewEngine(cover, newProbe, workers, nil, nil)
		en.CoveredSet(cands[1].Clause, pos, nil)
		en.ScoreBatch(cands, pos, neg, 0, 1)
		en.ScoreBatch(cands, pos, neg, NoBound, 0)
		en.Covers(cands[0].Clause, pos[0])
		if tests.Load() == 0 || published.Load() != tests.Load() {
			t.Errorf("workers=%d: published %d of %d tests", workers, published.Load(), tests.Load())
		}
	}
	if shared.Load() != 0 {
		t.Errorf("%d tests ran on a probe another worker held", shared.Load())
	}
}
