package progolem

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// countingNegativeReduce is NegativeReduce with every candidate check
// counting the candidate's full negative cover and comparing it with the
// base: the reference the bounded checks must agree with.
func countingNegativeReduce(tester *ilp.Tester, c *logic.Clause, neg []logic.Atom, known *coverage.Bitset) *logic.Clause {
	cur := c.Clone()
	baseSet := tester.CoveredSet(cur, neg, known)
	base := baseSet.Count()
	for i := len(cur.Body) - 1; i >= 0; i-- {
		if len(cur.Body) == 1 {
			break
		}
		cand := logic.PruneNotHeadConnected(cur.RemoveBodyAt(i))
		if len(cand.Body) == 0 {
			continue
		}
		if tester.Count(cand, neg, baseSet) <= base {
			cur = cand
			if i > len(cur.Body) {
				i = len(cur.Body)
			}
		}
	}
	return cur
}

// TestNegativeReduceMatchesCountingReference: ProGolem's negative
// reduction with bounded candidate checks returns, byte for byte, the
// clause the reference returns by counting every candidate's full cover,
// on UW-CSE ×4, HIV ×3 and IMDb ×3 at small scale, in both coverage
// modes, at Parallelism 1 and 4, with the coverage cache on and off. The
// inputs are the first positive's bottom clause generalized by ARMG
// toward the second and the third positive, as the beam does, at depth 2:
// ARMG on IMDb's depth-3 bottom clauses runs for minutes.
func TestNegativeReduceMatchesCountingReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reduces clauses of ten schemas under eight configurations, twice")
	}
	schemas, err := testfix.TenSchemas()
	if err != nil {
		t.Fatal(err)
	}
	var refTests, gotTests int64
	reduced := 0
	for _, sc := range schemas {
		prob := sc.Prob
		defaults := ilp.Defaults()
		gen := ilp.NewTester(prob, defaults)
		bottom := ilp.BottomClause(prob, prob.Pos[0], 2, defaults.MaxRecall)
		var inputs []*logic.Clause
		for _, e := range []int{1, 2} {
			if g := ARMG(gen, bottom, prob.Pos[e]); g != nil && len(g.Body) > 0 {
				inputs = append(inputs, g)
			}
		}
		if len(inputs) == 0 {
			t.Fatalf("%s: no reduction inputs", sc.Name)
		}
		for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
			for _, par := range []int{1, 4} {
				for _, noCache := range []bool{false, true} {
					params := defaults
					params.CoverageMode, params.Parallelism, params.DisableCoverageCache = mode, par, noCache
					refReg, gotReg := obs.NewRegistry(), obs.NewRegistry()
					params.Obs = obs.NewRun(nil, refReg)
					ref := ilp.NewTester(prob, params)
					params.Obs = obs.NewRun(nil, gotReg)
					got := ilp.NewTester(prob, params)
					for i, in := range inputs {
						want := countingNegativeReduce(ref, in, prob.Neg, ref.CoveredSet(in, prob.Neg, nil))
						have := NegativeReduce(got, in, prob.Neg, got.CoveredSet(in, prob.Neg, nil))
						if have.String() != want.String() {
							t.Errorf("%s mode=%v par=%d nocache=%v input %d:\n got  %v\n want %v",
								sc.Name, mode, par, noCache, i, have, want)
						}
						if !want.Equal(in) {
							reduced++
						}
					}
					refTests += refReg.Get(obs.CCoverageTests)
					gotTests += gotReg.Get(obs.CCoverageTests)
				}
			}
		}
	}
	if reduced == 0 {
		t.Error("no input was reduced: the parity check compared only identities")
	}
	if gotTests >= refTests {
		t.Errorf("bounded checks ran %d coverage tests, the counting reference %d: the bound never stopped a scan", gotTests, refTests)
	}
	t.Logf("coverage tests: counting reference %d, bounded %d; %d reductions changed their input", refTests, gotTests, reduced)
}
