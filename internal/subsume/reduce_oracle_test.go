package subsume_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/castor"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/subsume"
	"repro/internal/testfix"
)

// attemptReduce is ReduceR as one removal attempt per one-shot
// subsumption test: every attempt writes out the shorter clause, compiles
// it into a private space and prepares the current clause against that
// space. It is the oracle of the one-space reduction.
func attemptReduce(run *obs.Run, c *logic.Clause) *logic.Clause {
	cur := c.Clone()
	for i := 0; i < len(cur.Body); {
		run.Inc(obs.CReductionSteps)
		body := append(append([]logic.Atom(nil), cur.Body[:i]...), cur.Body[i+1:]...)
		if subsume.Compile(&logic.Clause{Head: cur.Head, Body: body}).SubsumesR(run, cur) {
			run.Inc(obs.CReductionRemoved)
			cur.Body = append(cur.Body[:i], cur.Body[i+1:]...)
		} else {
			i++
		}
	}
	return cur
}

// reduceCounters are the counters a reduction reports.
var reduceCounters = []obs.Counter{
	obs.CReductionSteps, obs.CReductionRemoved, obs.CSubsumptionCalls,
	obs.CSubsumptionNodes, obs.CSubsumptionBudgetExhausted,
}

// checkAgainstOracle reduces c both ways and reports any difference in
// the result or in the counters.
func checkAgainstOracle(c *logic.Clause) error {
	wantReg, gotReg := obs.NewRegistry(), obs.NewRegistry()
	want := attemptReduce(obs.NewRun(nil, wantReg), c)
	got := subsume.ReduceR(obs.NewRun(nil, gotReg), c)
	if got.String() != want.String() {
		return fmt.Errorf("ReduceR(%v)\n got  %v\n want %v", c, got, want)
	}
	for _, k := range reduceCounters {
		if g, w := gotReg.Get(k), wantReg.Get(k); g != w {
			return fmt.Errorf("ReduceR(%v): %v = %d, per-attempt reduction %d", c, k, g, w)
		}
	}
	return nil
}

// TestReduceRMatchesPerAttemptReduction: on the bottom clauses Castor
// minimizes — 18 examples of each of the ten schemas, UW-CSE ×4, HIV ×3
// and IMDb ×3, each of at most 200 literals as in Learn — the one-space
// ReduceR returns the clause the per-attempt reduction returns and reports
// the same reduction_steps, reduction_removed, subsumption_calls and
// subsumption_nodes.
func TestReduceRMatchesPerAttemptReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("reduces 180 bottom clauses twice")
	}
	schemas, err := testfix.TenSchemas()
	if err != nil {
		t.Fatal(err)
	}
	params := ilp.Defaults()
	checked, removed := 0, 0
	for _, sc := range schemas {
		prob := sc.Prob
		plan := relstore.CompilePlan(prob.Instance.Schema(), params.SubsetINDs)
		examples := append(append([]logic.Atom(nil), prob.Pos[:9]...), prob.Neg[:9]...)
		for _, e := range examples {
			b := castor.BottomClause(prob, plan, e, params)
			if len(b.Body) > 200 {
				continue
			}
			if err := checkAgainstOracle(b); err != nil {
				t.Errorf("%s: %v", sc.Name, err)
			}
			checked++
			if len(subsume.ReduceR(nil, b).Body) < len(b.Body) {
				removed++
			}
		}
	}
	if checked < 150 || removed == 0 {
		t.Errorf("checked %d bottom clauses, %d of them reducible: too few to show anything", checked, removed)
	}
	t.Logf("%d bottom clauses checked, %d of them reducible", checked, removed)
}

// quickClause is a testing/quick generator of small clauses over a few
// predicates, variables and constants, redundant often enough that
// reductions remove literals.
type quickClause struct{ *logic.Clause }

func (quickClause) Generate(r *rand.Rand, size int) reflect.Value {
	preds := []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 1}, {"r", 2}, {"s", 3}, {"z", 0}}
	vars := []string{"X", "Y", "Z", "W", "U"}
	consts := []string{"a", "b"}
	term := func() logic.Term {
		if r.Intn(5) == 0 {
			return logic.Const(consts[r.Intn(len(consts))])
		}
		return logic.Var(vars[r.Intn(len(vars))])
	}
	body := make([]logic.Atom, 1+r.Intn(min(size, 10)+1))
	for i := range body {
		p := preds[r.Intn(len(preds))]
		args := make([]logic.Term, p.arity)
		for j := range args {
			args[j] = term()
		}
		body[i] = logic.NewAtom(p.name, args...)
	}
	return reflect.ValueOf(quickClause{logic.NewClause(logic.NewAtom("t", logic.Var("X"), logic.Var("Y")), body...)})
}

// TestQuickReduceRMatchesPerAttemptReduction: on random clauses the
// one-space ReduceR and the per-attempt reduction agree on the result and
// on every reduction and subsumption counter.
func TestQuickReduceRMatchesPerAttemptReduction(t *testing.T) {
	f := func(c quickClause) bool {
		if err := checkAgainstOracle(c.Clause); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}
