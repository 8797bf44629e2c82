package testfix

import (
	"slices"
	"testing"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/subsume"
)

// stepwiseNegativeReduce runs NegativeReduce's schedule under the plan's
// policy check by check, the loop ilp.Reduce replaced. With count set each
// check counts the candidate's full negative cover and compares it with
// the base: the reference the bounded checks must agree with. Otherwise
// each check is the bounded CoversAtMost NegativeReduce makes, whose
// number of coverage tests chained checks must cut.
func stepwiseNegativeReduce(tester *ilp.Tester, plan *relstore.Plan, c *logic.Clause, neg []logic.Atom, known *coverage.Bitset, count bool) *logic.Clause {
	cur := c.Clone()
	baseSet := tester.CoveredSet(cur, neg, known)
	base := baseSet.Count()
	check := func(cand *logic.Clause) bool {
		if count {
			return tester.Count(cand, neg, baseSet) <= base
		}
		return tester.CoversAtMost(cand, neg, baseSet, base)
	}
	if plan == nil {
		for i := len(cur.Body) - 1; i >= 0; i-- {
			if len(cur.Body) == 1 {
				break
			}
			cand := logic.PruneNotHeadConnected(cur.RemoveBodyAt(i))
			if len(cand.Body) == 0 {
				continue
			}
			if check(cand) {
				cur = cand
				if i > len(cur.Body) {
					i = len(cur.Body)
				}
			}
		}
		return cur
	}
	for {
		instances := ilp.InclusionInstances(cur, plan)
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
			cand := &logic.Clause{Head: cur.Head}
			for li, a := range cur.Body {
				if kept[li] || !slices.Contains(instances[idx], li) {
					cand.Body = append(cand.Body, a)
				}
			}
			if len(cand.Body) == len(cur.Body) {
				continue
			}
			cand = logic.PruneNotHeadConnected(cand)
			if len(cand.Body) == 0 || !cand.IsSafe() {
				continue
			}
			if check(cand) {
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
// from in a learn under the plan's policy: the first positive's bottom
// clause generalized by ARMG toward two more positives, as the beam does,
// and last the bottom clause itself, which a covering iteration whose beam
// finds nothing better reduces from a base cover of no negatives.
//   - Castor (a plan): its IND-chased bottom clause, its safe ARMGs toward
//     the second and the sixth positive, and the bottom clause minimized,
//     as Castor minimizes bottom clauses of at most 200 literals;
//   - ProGolem (no plan): the classic bottom clause at depth 2 (ARMG on
//     IMDb's depth-3 bottom clauses runs for minutes) and its ARMGs toward
//     the second and the third positive.
func reductionInputs(prob *ilp.Problem, plan *relstore.Plan, params ilp.Params) []*logic.Clause {
	tester := ilp.NewTester(prob, params)
	bottom, toward := ilp.BottomClause(prob, prob.Pos[0], 2, params.MaxRecall), []int{1, 2}
	if plan != nil {
		bottom = ilp.Variablize(prob, ilp.NewBuilder(prob, plan).Build(prob.Pos[0], params, nil))
		toward = []int{1, 5}
	}
	var out []*logic.Clause
	for _, e := range toward {
		if e >= len(prob.Pos) {
			continue
		}
		if g := ilp.ARMG(tester, plan, bottom, prob.Pos[e]); g != nil && len(g.Body) > 0 && (plan == nil || g.IsSafe()) {
			out = append(out, g)
		}
	}
	if plan != nil && len(bottom.Body) <= 200 {
		bottom = subsume.ReduceR(nil, bottom)
	}
	return append(out, bottom)
}

// NegativeReduceMatchesCountingReference checks that ilp.NegativeReduce
// with bounded candidate checks returns, byte for byte, the clause the
// reference returns by counting every candidate's full cover, under
// Castor's policy (castorPolicy set: each schema's compiled plan) or
// ProGolem's (no plan), each from its own inputs, on UW-CSE ×4, HIV ×3 and
// IMDb ×3 at small scale, in both coverage modes, at Parallelism 1 and 4,
// with the coverage cache on and off. The bounded checks must also run
// fewer coverage tests in all, and chaining them must run at most half the
// tests of the same bounded checks made one by one on the ARMG inputs. A
// Castor tester in subsumption mode compiles saturations with the plan's
// builder, as Castor's does. Castor's and ProGolem's test suites each run
// it under their learner's policy.
func NegativeReduceMatchesCountingReference(t *testing.T, castorPolicy bool) {
	if testing.Short() {
		t.Skip("reduces clauses of ten schemas under eight configurations, three times")
	}
	schemas, err := TenSchemas()
	if err != nil {
		t.Fatal(err)
	}
	// Coverage tests per input shape: ARMG results, then bottom clauses.
	var refTests, stepTests, gotTests [2]int64
	reduced := 0
	for _, sc := range schemas {
		prob := sc.Prob
		var plan *relstore.Plan
		if castorPolicy {
			plan = relstore.CompilePlan(prob.Instance.Schema(), false)
		}
		inputs := reductionInputs(prob, plan, ilp.Defaults())
		if len(inputs) == 1 {
			t.Fatalf("%s: no ARMG reduction inputs", sc.Name)
		}
		for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
			for _, par := range []int{1, 4} {
				for _, noCache := range []bool{false, true} {
					params := ilp.Defaults()
					params.CoverageMode, params.Parallelism, params.DisableCoverageCache = mode, par, noCache
					tester := func(reg *obs.Registry) *ilp.Tester {
						params.Obs = obs.NewRun(nil, reg)
						tester := ilp.NewTester(prob, params)
						if plan != nil && mode == ilp.CoverageSubsumption {
							tester.UseBuilder(ilp.NewBuilder(prob, plan))
						}
						return tester
					}
					refReg, stepReg, gotReg := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
					ref, step, got := tester(refReg), tester(stepReg), tester(gotReg)
					for i, in := range inputs {
						refBefore, stepBefore, gotBefore := refReg.Get(obs.CCoverageTests), stepReg.Get(obs.CCoverageTests), gotReg.Get(obs.CCoverageTests)
						want := stepwiseNegativeReduce(ref, plan, in, prob.Neg, ref.CoveredSet(in, prob.Neg, nil), true)
						byStep := stepwiseNegativeReduce(step, plan, in, prob.Neg, step.CoveredSet(in, prob.Neg, nil), false)
						have := ilp.NegativeReduce(got, plan, in, got.CoveredSet(in, prob.Neg, nil))
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
	t.Logf("ARMG inputs: counting reference %d, bounded one by one %d, bounded %d; bottom clauses: counting reference %d, bounded one by one %d, bounded %d",
		refTests[0], stepTests[0], gotTests[0], refTests[1], stepTests[1], gotTests[1])
}
