// Package subsume implements θ-subsumption between Horn clauses, clause
// reduction (removal of redundant literals), and clause/definition
// equivalence checks.
//
// Clause C θ-subsumes clause D iff there is a substitution θ such that
// Cθ ⊆ D (literal-wise, with the head of C mapping to the head of D).
// For conjunctive queries θ-subsumption coincides with query containment:
// C θ-subsumes D iff the result of C contains the result of D on every
// database instance, which is what the paper's equivalence of definitions
// (operator ≡) is built on.
//
// The engine substitutes for the Resumer2 system the paper uses: target
// clauses are compiled once (Compile — skolemized, interned, their
// literals grouped by predicate and arity) and probed many times by a
// backtracking CSP matcher with decomposition into variable-connected
// components, dynamic most-constrained-literal selection, and incremental
// candidate domains narrowed on bind and restored from a trail on
// backtrack. Every probe asks one question: does a clause, its head
// matched onto the target's head, map its body into the target's body?
// Coverage testing asks it of a candidate against an example's ground
// bottom clause, whose head is the example; Subsumes compiles and probes
// in one call.
package subsume

import (
	"repro/internal/logic"
	"repro/internal/obs"
)

// Subsumes reports whether clause c θ-subsumes clause d: some substitution
// θ (applied to c only; d's variables act as fresh constants) maps c's head
// to d's head and every body literal of c to a body literal of d.
func Subsumes(c, d *logic.Clause) bool {
	return Compile(d).Subsumes(c)
}

// skolemPrefix marks constants standing in for target-clause variables. The
// NUL byte cannot occur in real constants, so skolems never collide.
const skolemPrefix = "\x00sk:"

// matchBudget bounds the backtracking search per top-level call; on
// exhaustion the matcher reports "does not subsume" — the cutoff discipline
// of engines like Resumer2 — and bumps the subsumption_budget_exhausted
// counter so metrics distinguish cutoffs from genuine failures.
// Subsumption is NP-complete, so some bound is required for pathological
// clause pairs; the default is far beyond what realistic clauses need. A
// variable (not a constant) so the cutoff test can exercise the path
// without a multi-million-node search.
var matchBudget = 1 << 21

// ReduceR removes syntactically redundant body literals from the clause:
// a literal L is redundant iff C θ-subsumes C−{L} (then the two are
// equivalent, because C−{L} trivially subsumes C). This is the paper's
// §7.5.5 minimization (θ-transformation). The head and relative order of
// the surviving literals are preserved. The input clause is not modified.
// It reports removal attempts and removed literals into the run (nil
// observes nothing); each call is one "minimize" span.
//
// The whole reduction works in one space, on one target and one source:
// the clause's names, its variables skolemized, are interned once, the
// clause is compiled as a target once and prepared as a source once. Each
// attempt probes the target under a mask of the literals still kept, less
// the one under test, and a kept removal derives the shorter clause's
// source from the whole clause's ids, under the same mask in body order.
// A masked target's domains are exactly the shorter target's, and every id
// comparison the matcher makes has the answer it has in the private space
// of a one-shot Subsumes, so each attempt decides and counts backtracking
// nodes exactly as one.
func ReduceR(run *obs.Run, c *logic.Clause) *logic.Clause {
	var sp *obs.Span
	if run.Spanning() {
		sp = run.StartSpan("minimize", obs.F("literals", len(c.Body)))
	}
	n := len(c.Body)
	space := spaceOf(c)
	// at[k] is body literal k's index in the target's literal table.
	at := make([]int32, n)
	target := space.compile(c, at)
	whole := space.Prepare(c)
	src := whole
	// keep marks the literals of c still in the clause, by body index for
	// the source and by literal-table index for the target.
	masks := make([]bool, 2*n)
	keep, tkeep := masks[:n], masks[n:]
	for k := range masks {
		masks[k] = true
	}
	var sub Sub
	kept := n
	for k := range keep {
		run.Inc(obs.CReductionSteps)
		tkeep[at[k]] = false
		if target.probe(run, src, tkeep) {
			run.Inc(obs.CReductionRemoved)
			keep[k] = false
			kept--
			src = whole.derive(&sub, keep)
		} else {
			tkeep[at[k]] = true
		}
	}
	if sp != nil {
		sp.Annotate(obs.F("kept", kept))
		sp.End()
	}
	return c.Keep(keep)
}

// EquivalentClauses reports whether the clauses subsume each other, i.e.
// return identical results on every database instance.
func EquivalentClauses(c, d *logic.Clause) bool {
	return Subsumes(c, d) && Subsumes(d, c)
}

// ContainsDefinition reports d1 ⊒ d2: every clause of d2 is θ-subsumed by
// some clause of d1, so d1's result contains d2's result on every instance.
func ContainsDefinition(d1, d2 *logic.Definition) bool {
	for _, c2 := range d2.Clauses {
		// One compilation of c2 serves the probe from every clause of d1.
		cd := Compile(c2)
		found := false
		for _, c1 := range d1.Clauses {
			if cd.Subsumes(c1) {
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

// EquivalentDefinitions reports whether the two Horn definitions are
// equivalent as unions of conjunctive queries: each contains the other.
func EquivalentDefinitions(d1, d2 *logic.Definition) bool {
	return ContainsDefinition(d1, d2) && ContainsDefinition(d2, d1)
}
