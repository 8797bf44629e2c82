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
