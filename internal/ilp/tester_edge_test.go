package ilp_test

import (
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// TestTesterEdgeCases drives CoveredSet/Count/PosNeg through the shapes
// that used to crash or could silently diverge: empty example slices,
// known-covered sets shorter or longer than the examples (the seed
// implementation indexed known[i] and panicked in a worker goroutine on a
// short set), and sequential/parallel consistency with and without knowns.
func TestTesterEdgeCases(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	clause := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")
	none := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), courseLevel(Z,900).")

	mkKnown := func(n, stride int) *coverage.Bitset {
		b := coverage.New(n)
		for i := 0; i < n; i += stride {
			b.Set(i)
		}
		return b
	}

	cases := []struct {
		name     string
		clause   *logic.Clause
		examples []logic.Atom
		known    *coverage.Bitset
	}{
		{"empty examples", clause, nil, nil},
		{"empty examples with known", clause, nil, mkKnown(7, 2)},
		{"nil known", clause, prob.Pos, nil},
		{"known matches", clause, prob.Pos, mkKnown(len(prob.Pos), 2)},
		{"known shorter", clause, prob.Pos, mkKnown(len(prob.Pos)/2, 2)},
		{"known longer", clause, prob.Pos, mkKnown(len(prob.Pos)*2, 2)},
		{"known all set, covering nothing", none, prob.Pos, mkKnown(len(prob.Pos), 1)},
		{"single example", clause, prob.Pos[:1], mkKnown(1, 1)},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				params := ilp.Defaults()
				params.Parallelism = workers
				tester := ilp.NewTester(prob, params)
				got := tester.CoveredSet(tc.clause, tc.examples, tc.known)
				if got.Len() != len(tc.examples) {
					t.Fatalf("result length %d, want %d", got.Len(), len(tc.examples))
				}
				// Every known bit inside range must be reported covered.
				for i := range tc.examples {
					if tc.known.Get(i) && !got.Get(i) {
						t.Errorf("known example %d reported uncovered", i)
					}
				}
				if c := tester.Count(tc.clause, tc.examples, tc.known); c != got.Count() {
					t.Errorf("Count = %d, CoveredSet.Count = %d", c, got.Count())
				}
			})
		}
	}
}

// TestTesterCountPosNegConsistency cross-checks Count and PosNeg between
// sequential and parallel testers, with the memo cache on and off.
func TestTesterCountPosNegConsistency(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	clauses := []*logic.Clause{
		logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y), hasPosition(Y,faculty)."),
		logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- student(X), professor(Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), courseLevel(Z,900)."),
	}
	type result struct{ p, n int }
	var want []result
	for cfg := 0; cfg < 4; cfg++ {
		params := ilp.Defaults()
		params.Parallelism = 1 + 7*(cfg%2)
		params.DisableCoverageCache = cfg >= 2
		tester := ilp.NewTester(prob, params)
		var got []result
		for _, c := range clauses {
			p, n := tester.PosNeg(c, prob.Pos, prob.Neg, nil, nil)
			if p != tester.Count(c, prob.Pos, nil) || n != tester.Count(c, prob.Neg, nil) {
				t.Fatalf("cfg %d: PosNeg and Count disagree on %v", cfg, c)
			}
			got = append(got, result{p, n})
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("cfg %d (parallel=%d cache=%v): clause %d = %+v, want %+v",
					cfg, params.Parallelism, !params.DisableCoverageCache, i, got[i], want[i])
			}
		}
	}
}

// TestScoreBatchEmpty covers the zero-candidate and zero-example corners
// of the batched scorer.
func TestScoreBatchEmpty(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	tester := ilp.NewTester(prob, ilp.Defaults())
	if got := tester.ScoreBatch(nil, prob.Pos, prob.Neg, coverage.NoBound, 0); len(got) != 0 {
		t.Fatalf("empty batch returned %d scores", len(got))
	}
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")
	scores := tester.ScoreBatch([]coverage.Candidate{{Clause: c}}, nil, nil, coverage.NoBound, 0)
	if len(scores) != 1 || scores[0].P != 0 || scores[0].N != 0 || scores[0].Pruned {
		t.Fatalf("empty example sets: %+v", scores[0])
	}
}

// TestSubsumptionTesterNamesOutsideTheProblem: the subsumption tester's id
// space holds the instance's constants, the relation names, the target
// predicate and the problem's example constants. Atoms outside the problem
// (one with a constant no tuple holds) still get one saturation each and
// agree with direct evaluation, and a saturation holding a name the space
// lacks still matches a candidate holding that name.
func TestSubsumptionTesterNamesOutsideTheProblem(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.CoverageMode = ilp.CoverageSubsumption
	params.Obs = obs.NewRun(nil, obs.NewRegistry())
	sub := ilp.NewTester(prob, params)
	direct := ilp.NewTester(prob, ilp.Defaults())

	p0 := prob.Pos[0]
	strays := []logic.Atom{
		logic.GroundAtom(p0.Pred, p0.Args[1].Name, p0.Args[0].Name),
		logic.GroundAtom(p0.Pred, p0.Args[0].Name, "nobody"),
	}
	clauses := []*logic.Clause{
		logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- student(X)."),
		logic.MustParseClause("advisedBy(X,nobody) :- student(X)."),
	}
	for pass := 0; pass < 2; pass++ {
		for _, c := range clauses {
			for _, e := range strays {
				if got, want := sub.Covers(c, e), direct.Covers(c, e); got != want {
					t.Errorf("Covers(%v, %v): subsumption %v, direct %v", c, e, got, want)
				}
			}
		}
	}
	reg := params.Obs.Registry()
	if got := reg.Get(obs.CSaturationMisses); got != int64(len(strays)) {
		t.Errorf("saturation_misses = %d, want one per atom (%d)", got, len(strays))
	}
	if got, want := reg.Get(obs.CSaturationHits), int64(2*len(clauses)*len(strays)-len(strays)); got != want {
		t.Errorf("saturation_hits = %d, want %d", got, want)
	}

	// A saturation naming a title no tuple holds: the candidate naming it
	// must land on it.
	ghost := ilp.NewTester(prob, params)
	ghost.SatFn = func(e logic.Atom) *logic.Clause {
		c := ilp.Saturation(prob, e, params.Depth, params.MaxRecall)
		c.Body = append(c.Body, logic.GroundAtom("publication", "ghost_title", e.Args[0].Name))
		return c
	}
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(ghost_title, X).")
	if got := ghost.Count(c, prob.Pos, nil); got != len(prob.Pos) {
		t.Errorf("ghost-title clause covers %d of %d positives, want all", got, len(prob.Pos))
	}
	if direct.Count(c, prob.Pos, nil) != 0 {
		t.Error("direct evaluation found the ghost title in the store")
	}
}
