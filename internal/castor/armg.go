package castor

import (
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
)

// Castor's ARMG (§7.2.1): ProGolem's blocking-atom removal, followed by
// re-establishing the INDs — any literal whose free tuple no longer has a
// matching partner literal for one of its INDs is removed too, so the
// canonical database instance of the clause always satisfies the schema's
// INDs (Lemma 7.7). Example 7.6: dropping inPhase(x, prelim) over the
// Original schema also drops student(x) and yearsInProgram(x, 3), exactly
// mirroring the removal of student(x, prelim, 3) over 4NF.

// ARMG generalizes clause c to cover example e2, maintaining the INDs of
// the plan. It returns nil when e2 cannot be covered at all.
func ARMG(tester *ilp.Tester, plan *relstore.Plan, c *logic.Clause, e2 logic.Atom, params ilp.Params) *logic.Clause {
	tester.Run().Inc(obs.CARMGCalls)
	if _, ok := logic.MatchAtoms(c.Head, e2, logic.NewSubstitution()); !ok {
		return nil
	}
	cur := c.Clone()
	for !tester.Covers(cur, e2) {
		i := ilp.BlockingAtom(tester, cur, e2)
		if i < 0 {
			return nil
		}
		cur = cur.RemoveBodyAt(i)
		cur = EnforceINDs(cur, plan)
		cur = logic.PruneNotHeadConnected(cur)
	}
	return cur
}

// EnforceINDs removes body literals until every remaining literal satisfies
// all its IND hops within the clause: for each hop R1[X] ⋈ R2[X] out of a
// literal R1(u), some literal R2(v) must agree with u on the join
// positions. Removals cascade to a fixpoint.
func EnforceINDs(c *logic.Clause, plan *relstore.Plan) *logic.Clause {
	body := append([]logic.Atom(nil), c.Body...)
	for {
		removed := false
		for i := 0; i < len(body); i++ {
			if !literalSatisfiesINDs(body[i], body, plan) {
				body = append(body[:i], body[i+1:]...)
				removed = true
				i--
			}
		}
		if !removed {
			break
		}
	}
	return &logic.Clause{Head: c.Head.Clone(), Body: body}
}

// literalSatisfiesINDs checks every hop out of the literal's relation.
func literalSatisfiesINDs(lit logic.Atom, body []logic.Atom, plan *relstore.Plan) bool {
	for _, hop := range plan.Partners(lit.Pred) {
		if len(hop.SrcPos) > 0 && hop.SrcPos[len(hop.SrcPos)-1] >= len(lit.Args) {
			continue // arity mismatch: not a literal of this schema relation
		}
		found := false
		for _, other := range body {
			if other.Pred != hop.Rel {
				continue
			}
			ok := true
			for i, sp := range hop.SrcPos {
				dp := hop.DstPos[i]
				if dp >= len(other.Args) || lit.Args[sp] != other.Args[dp] {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
