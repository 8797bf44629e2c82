package ilp_test

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// TestCoveredSetParallelKnownMatchesSequential runs the §7.5.4 known
// shortcut through the parallel worker pool and compares against the
// sequential path; under -race this also checks the pool for data races
// while the shared registry is being written.
func TestCoveredSetParallelKnownMatchesSequential(t *testing.T) {
	w := testfix.NewWorld(16)
	prob := w.ProblemOriginal()
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")
	all := append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...)
	known := coverage.New(len(all))
	for i := 0; i < len(all); i += 3 {
		known.Set(i)
	}

	seqParams := ilp.Defaults()
	seqParams.Parallelism = 1
	seq := ilp.NewTester(prob, seqParams).CoveredSet(c, all, known)

	parParams := ilp.Defaults()
	parParams.Parallelism = 8
	parParams.Obs = obs.NewRun(nil, obs.NewRegistry())
	par := ilp.NewTester(prob, parParams).CoveredSet(c, all, known)

	if !seq.Equal(par) {
		t.Fatalf("parallel/sequential disagree: %v vs %v", seq.Bools(), par.Bools())
	}
	for i := range all {
		if known.Get(i) && !par.Get(i) {
			t.Fatalf("known example %d reported uncovered", i)
		}
	}

	reg := parParams.Obs.Registry()
	wantSkipped := int64(known.Count())
	if got := reg.Get(obs.CCoverageSkipped); got != wantSkipped {
		t.Errorf("coverage_tests_skipped = %d, want %d", got, wantSkipped)
	}
	wantTested := int64(len(all)) - wantSkipped
	if got := reg.Get(obs.CCoverageTests); got != wantTested {
		t.Errorf("coverage_tests = %d, want %d", got, wantTested)
	}
	if reg.Snapshot().Spans["coverage_batch"].Calls != 1 {
		t.Error("coverage batch not spanned exactly once")
	}
}

// TestSaturationCacheCounters: repeated subsumption-mode coverage of the
// same examples must hit the saturation cache, and the counters must see
// both the misses (first pass) and the hits (second pass).
func TestSaturationCacheCounters(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.CoverageMode = ilp.CoverageSubsumption
	// With the memo cache on, the second CoveredSet would be answered
	// whole-sale without consulting the saturation cache; disable it so
	// this test exercises the per-example saturation path both times.
	params.DisableCoverageCache = true
	params.Obs = obs.NewRun(nil, obs.NewRegistry())
	tester := ilp.NewTester(prob, params)
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")

	tester.CoveredSet(c, prob.Pos, nil)
	reg := params.Obs.Registry()
	misses := reg.Get(obs.CSaturationMisses)
	if misses != int64(len(prob.Pos)) {
		t.Errorf("first pass: %d misses, want %d", misses, len(prob.Pos))
	}
	tester.CoveredSet(c, prob.Pos, nil)
	if hits := reg.Get(obs.CSaturationHits); hits != int64(len(prob.Pos)) {
		t.Errorf("second pass: %d hits, want %d", hits, len(prob.Pos))
	}
	if reg.Get(obs.CSaturationMisses) != misses {
		t.Error("second pass rebuilt saturations")
	}
}

// TestEqualExamplesShareASaturation: equal examples share one saturation
// entry however their argument arrays lie: a positive repeated with
// arrays of its own, the same atom among the negatives, and a copy from
// outside the problem each find the entry of the first, so the saturation
// is built once; an atom of another predicate over the same array does
// not.
func TestEqualExamplesShareASaturation(t *testing.T) {
	prob := testfix.NewWorld(8).ProblemOriginal()
	p0 := prob.Pos[0]
	prob.Pos = append(prob.Pos[:len(prob.Pos):len(prob.Pos)], p0.Clone())
	prob.Neg = append(prob.Neg[:len(prob.Neg):len(prob.Neg)], p0.Clone())
	params := ilp.Defaults()
	params.CoverageMode = ilp.CoverageSubsumption
	params.Obs = obs.NewRun(nil, obs.NewRegistry())
	tester := ilp.NewTester(prob, params)
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")
	reg := params.Obs.Registry()
	for _, e := range []logic.Atom{p0, prob.Pos[len(prob.Pos)-1], prob.Neg[len(prob.Neg)-1], p0.Clone()} {
		tester.Covers(c, e)
	}
	if misses, hits := reg.Get(obs.CSaturationMisses), reg.Get(obs.CSaturationHits); misses != 1 || hits != 3 {
		t.Errorf("four tests of one example: %d saturation misses and %d hits, want 1 and 3", misses, hits)
	}
	tester.Covers(c, logic.Atom{Pred: "coauthor", Args: p0.Args})
	if misses := reg.Get(obs.CSaturationMisses); misses != 2 {
		t.Errorf("an atom of another predicate over the same arguments: %d saturation misses in all, want 2", misses)
	}
}
