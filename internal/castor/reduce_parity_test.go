package castor

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/subsume"
	"repro/internal/testfix"
)

// stepwiseNegativeReduce runs NegativeReduce's schedule check by check,
// the loop ilp.Reduce replaced. With count set each check counts the
// candidate's full negative cover and compares it with the base: the
// reference the bounded checks must agree with. Otherwise each check is
// the bounded CoversAtMost NegativeReduce makes, whose number of coverage
// tests chained checks must cut.
func stepwiseNegativeReduce(tester *ilp.Tester, plan *relstore.Plan, c *logic.Clause, neg []logic.Atom, known *coverage.Bitset, count bool) *logic.Clause {
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
			var pass bool
			if count {
				pass = tester.Count(cand, neg, baseSet) <= base
			} else {
				pass = tester.CoversAtMost(cand, neg, baseSet, base)
			}
			if pass {
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
// toward the second and the sixth positive, as the beam does, and last the
// minimized bottom clause itself, which a covering iteration whose beam
// finds nothing better reduces from a base cover of no negatives.
func reductionInputs(prob *ilp.Problem, plan *relstore.Plan, params ilp.Params) []*logic.Clause {
	tester := ilp.NewTester(prob, params)
	bottom := BottomClause(prob, plan, prob.Pos[0], params)
	var out []*logic.Clause
	for _, e := range []int{1, 5} {
		if e >= len(prob.Pos) {
			continue
		}
		if g := ilp.ARMG(tester, plan, bottom, prob.Pos[e]); g != nil && g.IsSafe() && len(g.Body) > 0 {
			out = append(out, g)
		}
	}
	if len(bottom.Body) <= reduceCutoff {
		bottom = subsume.ReduceR(nil, bottom)
	}
	return append(out, bottom)
}

// TestNegativeReduceMatchesCountingReference: Castor's negative
// reduction with bounded candidate checks returns, byte for byte, the
// clause the reference returns by counting every candidate's full cover,
// on UW-CSE ×4, HIV ×3 and IMDb ×3 at small scale, in both coverage
// modes, at Parallelism 1 and 4, with the coverage cache on and off. The
// bounded checks must also run fewer coverage tests in all, and chaining
// them must run at most half the tests of the same bounded checks made
// one by one on the ARMG inputs.
func TestNegativeReduceMatchesCountingReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reduces clauses of ten schemas under eight configurations, three times")
	}
	schemas, err := testfix.TenSchemas()
	if err != nil {
		t.Fatal(err)
	}
	// Coverage tests per input shape: ARMG results, then bottom clauses.
	var refTests, stepTests, gotTests [2]int64
	reduced := 0
	for _, sc := range schemas {
		prob := sc.Prob
		plan := relstore.CompilePlan(prob.Instance.Schema(), false)
		inputs := reductionInputs(prob, plan, ilp.Defaults())
		if len(inputs) == 1 {
			t.Fatalf("%s: no ARMG reduction inputs", sc.Name)
		}
		for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
			for _, par := range []int{1, 4} {
				for _, noCache := range []bool{false, true} {
					params := ilp.Defaults()
					params.CoverageMode, params.Parallelism, params.DisableCoverageCache = mode, par, noCache
					refReg, stepReg, gotReg := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
					params.Obs = obs.NewRun(nil, refReg)
					ref, _ := coverageTester(prob, params)
					params.Obs = obs.NewRun(nil, stepReg)
					step, _ := coverageTester(prob, params)
					params.Obs = obs.NewRun(nil, gotReg)
					got, _ := coverageTester(prob, params)
					for i, in := range inputs {
						refBefore, stepBefore, gotBefore := refReg.Get(obs.CCoverageTests), stepReg.Get(obs.CCoverageTests), gotReg.Get(obs.CCoverageTests)
						want := stepwiseNegativeReduce(ref, plan, in, prob.Neg, ref.CoveredSet(in, prob.Neg, nil), true)
						byStep := stepwiseNegativeReduce(step, plan, in, prob.Neg, step.CoveredSet(in, prob.Neg, nil), false)
						have := NegativeReduce(got, plan, in, prob.Neg, got.CoveredSet(in, prob.Neg, nil))
						if have.String() != want.String() || byStep.String() != want.String() {
							t.Errorf("%s mode=%v par=%d nocache=%v input %d:\n got  %v\n step %v\n want %v",
								sc.Name, mode, par, noCache, i, have, byStep, want)
						}
						if !want.Equal(in) {
							reduced++
						}
						shape := 0
						if i == len(inputs)-1 {
							shape = 1
						}
						refTests[shape] += refReg.Get(obs.CCoverageTests) - refBefore
						stepTests[shape] += stepReg.Get(obs.CCoverageTests) - stepBefore
						gotTests[shape] += gotReg.Get(obs.CCoverageTests) - gotBefore
					}
				}
			}
		}
	}
	if reduced == 0 {
		t.Error("no input was reduced: the parity check compared only identities")
	}
	refAll, gotAll := refTests[0]+refTests[1], gotTests[0]+gotTests[1]
	if gotAll >= refAll {
		t.Errorf("bounded checks ran %d coverage tests, the counting reference %d: the bound never stopped a scan", gotAll, refAll)
	}
	if 2*gotTests[0] > stepTests[0] {
		t.Errorf("on the ARMG inputs chained checks ran %d coverage tests, checks one by one %d: chaining saved less than half", gotTests[0], stepTests[0])
	}
	t.Logf("coverage tests: counting reference %d, bounded %d; %d reductions changed their input", refAll, gotAll, reduced)
	t.Logf("ARMG inputs: counting reference %d, bounded one by one %d, bounded %d; minimized bottom clauses: counting reference %d, bounded one by one %d, bounded %d",
		refTests[0], stepTests[0], gotTests[0], refTests[1], stepTests[1], gotTests[1])
}
