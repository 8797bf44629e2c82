package castor

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/testfix"
)

// countingNegativeReduce is NegativeReduce with every candidate check
// counting the candidate's full negative cover and comparing it with the
// base: the reference the bounded checks must agree with.
func countingNegativeReduce(tester *ilp.Tester, plan *relstore.Plan, c *logic.Clause, neg []logic.Atom, known *coverage.Bitset) *logic.Clause {
	cur := c.Clone()
	baseSet := tester.CoveredSet(cur, neg, known)
	base := baseSet.Count()
	for {
		instances := InclusionInstances(cur, plan)
		if len(instances) <= 1 {
			return cur
		}
		removedAny := false
		for idx := len(instances) - 1; idx >= 0; idx-- {
			kept := make(map[int]bool)
			for o, inst := range instances {
				if o == idx {
					continue
				}
				for _, li := range inst {
					kept[li] = true
				}
			}
			var exclusive []int
			for _, li := range instances[idx] {
				if !kept[li] {
					exclusive = append(exclusive, li)
				}
			}
			if len(exclusive) == 0 {
				continue
			}
			cand := logic.PruneNotHeadConnected(removeLiterals(cur, exclusive))
			if len(cand.Body) == 0 || !cand.IsSafe() {
				continue
			}
			if tester.Count(cand, neg, baseSet) <= base {
				cur = cand
				removedAny = true
				break
			}
		}
		if !removedAny {
			return cur
		}
	}
}

// reductionInputs returns clauses like those negative reduction starts
// from in a learn: the first positive's bottom clause generalized by ARMG
// toward the second and the sixth positive, as the beam does.
func reductionInputs(prob *ilp.Problem, plan *relstore.Plan, params ilp.Params) []*logic.Clause {
	tester := ilp.NewTester(prob, params)
	bottom := BottomClause(prob, plan, prob.Pos[0], params)
	var out []*logic.Clause
	for _, e := range []int{1, 5} {
		if e >= len(prob.Pos) {
			continue
		}
		if g := ARMG(tester, plan, bottom, prob.Pos[e], params); g != nil && g.IsSafe() && len(g.Body) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// TestNegativeReduceMatchesCountingReference: Castor's negative
// reduction with bounded candidate checks returns, byte for byte, the
// clause the reference returns by counting every candidate's full cover,
// on UW-CSE ×4, HIV ×3 and IMDb ×3 at small scale, in both coverage
// modes, at Parallelism 1 and 4, with the coverage cache on and off. The
// bounded checks must also run fewer coverage tests in all.
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
		plan := relstore.CompilePlan(prob.Instance.Schema(), false)
		inputs := reductionInputs(prob, plan, ilp.Defaults())
		if len(inputs) == 0 {
			t.Fatalf("%s: no reduction inputs", sc.Name)
		}
		for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
			for _, par := range []int{1, 4} {
				for _, noCache := range []bool{false, true} {
					params := ilp.Defaults()
					params.CoverageMode, params.Parallelism, params.DisableCoverageCache = mode, par, noCache
					refReg, gotReg := obs.NewRegistry(), obs.NewRegistry()
					params.Obs = obs.NewRun(nil, refReg)
					ref, _ := coverageTester(prob, params)
					params.Obs = obs.NewRun(nil, gotReg)
					got, _ := coverageTester(prob, params)
					for i, in := range inputs {
						want := countingNegativeReduce(ref, plan, in, prob.Neg, ref.CoveredSet(in, prob.Neg, nil))
						have := NegativeReduce(got, plan, in, prob.Neg, got.CoveredSet(in, prob.Neg, nil))
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
