package subsume

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
)

// TestSubsumptionNodesGolden pins the matcher's search order: over a fixed
// stream of random clause pairs, the answers and the total
// subsumption_nodes of one-shot probes of each clause pair and of its two
// bodies under a shared nullary head (the source body with a variable
// bound to a constant beforehand, half the time) must equal the values the
// per-target string-keyed matcher this engine replaced recorded. Literal
// selection, domain order, component splitting and the early exits all
// move the node total.
func TestSubsumptionNodesGolden(t *testing.T) {
	preds := []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 1}, {"r", 2}, {"s", 3}}
	rng := rand.New(rand.NewSource(20261017))
	term := func(varFrac int) logic.Term {
		if rng.Intn(10) < varFrac {
			return logic.Var([]string{"X", "Y", "Z", "W", "V"}[rng.Intn(5)])
		}
		return logic.Const([]string{"a", "b", "c"}[rng.Intn(3)])
	}
	clause := func(maxBody, varFrac int) *logic.Clause {
		head := make([]logic.Term, 1+rng.Intn(2))
		for j := range head {
			head[j] = term(varFrac)
		}
		c := &logic.Clause{Head: logic.NewAtom("t", head...)}
		for k := rng.Intn(maxBody + 1); k > 0; k-- {
			p := preds[rng.Intn(len(preds))]
			args := make([]logic.Term, p.arity)
			for j := range args {
				args[j] = term(varFrac)
			}
			c.Body = append(c.Body, logic.NewAtom(p.name, args...))
		}
		return c
	}
	reg := obs.NewRegistry()
	run := obs.NewRun(nil, reg)
	answers := fnv.New64a()
	for k := 0; k < 20000; k++ {
		varFrac := 0
		if rng.Intn(3) == 0 {
			varFrac = 4
		}
		c, d := clause(7, 9), clause(24, varFrac)
		init := logic.Substitution{"X": term(0)}
		if rng.Intn(2) == 0 {
			init = nil
		}
		fmt.Fprint(answers, Compile(d).SubsumesR(run, c), Compile(headed(d.Body)).SubsumesR(run, headed(c.Body).Apply(init)))
	}
	got := fmt.Sprintf("%016x/%d/%d", answers.Sum64(), reg.Get(obs.CSubsumptionNodes), reg.Get(obs.CSubsumptionCalls))
	if want := "ca5fefbebc38b762/25903/40000"; got != want {
		t.Errorf("answers/nodes/calls = %s, want %s", got, want)
	}
}
