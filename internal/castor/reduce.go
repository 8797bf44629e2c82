package castor

import (
	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
)

// Castor's negative reduction (§7.2.2, Algorithm 5): literals are removed
// at the granularity of *instances of inclusion classes* — maximal groups
// of literals linked by matching IND projections, the images of single
// literals over a composed schema — so that reduction makes the same
// decisions over every (de)composition (Lemma 7.8).
//
// This implementation eliminates non-essential instances by scanning them
// in reverse discovery order and dropping any instance whose removal does
// not increase the clause's negative coverage, keeps the clause
// head-connected, and keeps it safe (the §7.3.3 safe variant). That is a
// simpler schedule than Algorithm 5's prefix rotation, but it enforces the
// same contract: negative coverage never grows, positive coverage never
// shrinks (removal only generalizes), instances stay atomic, and the
// result is safe.

// InclusionInstances groups the clause's body literal indexes into
// instances of inclusion classes: for each literal, the set of IND-linked
// literals belonging to the same joined row. As in bottom-clause
// construction, the closure tracks the row being assembled (attribute →
// term) and only admits literals consistent with it — without that, one
// shared entity literal (one color id referenced by many movies) would
// glue every row's literals into a single unremovable blob. Literals in no
// class form singleton instances; instances may share literals; duplicate
// closures are emitted once, in first-literal order.
func InclusionInstances(c *logic.Clause, plan *relstore.Plan) [][]int {
	var out [][]int
	seen := make(map[string]bool)
	for j := range c.Body {
		inst := closure(c, plan, j)
		k := intsKey(inst)
		if !seen[k] {
			seen[k] = true
			out = append(out, inst)
		}
	}
	return out
}

// closure expands literal j over IND-hop matches within the clause,
// keeping the accumulated row consistent.
func closure(c *logic.Clause, plan *relstore.Plan, j int) []int {
	schema := plan.Schema()
	row := make(map[string]logic.Term)
	consistent := func(lit logic.Atom) (*relstore.Relation, bool) {
		rel, ok := schema.Relation(lit.Pred)
		if !ok || rel.Arity() != lit.Arity() {
			return nil, false
		}
		for pos, attr := range rel.Attrs {
			if t, bound := row[attr]; bound && t != lit.Args[pos] {
				return nil, false
			}
		}
		return rel, true
	}
	merge := func(rel *relstore.Relation, lit logic.Atom) {
		for pos, attr := range rel.Attrs {
			row[attr] = lit.Args[pos]
		}
	}
	in := map[int]bool{j: true}
	if rel, ok := consistent(c.Body[j]); ok {
		merge(rel, c.Body[j])
	}
	queue := []int{j}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		lit := c.Body[cur]
		for _, hop := range plan.Partners(lit.Pred) {
			for k, other := range c.Body {
				if in[k] || other.Pred != hop.Rel {
					continue
				}
				match := true
				for i, sp := range hop.SrcPos {
					dp := hop.DstPos[i]
					if sp >= len(lit.Args) || dp >= len(other.Args) || lit.Args[sp] != other.Args[dp] {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				rel, ok := consistent(other)
				if !ok {
					continue
				}
				merge(rel, other)
				in[k] = true
				queue = append(queue, k)
			}
		}
	}
	out := make([]int, 0, len(in))
	for k := range in {
		out = append(out, k)
	}
	sortInts(out)
	return out
}

// NegativeReduce removes non-essential inclusion instances from the
// clause. An instance is non-essential when dropping its literals (and any
// literals left disconnected from the head) does not increase the number
// of covered negatives, and the clause stays non-empty and safe.
//
// known optionally carries c's already-computed negative cover. Every
// candidate only removes literals — a generalization — so the base cover
// stays a valid §7.5.4 known-covered set for all of them, and a
// candidate's check stops at the first negative outside it that the
// candidate covers.
func NegativeReduce(tester *ilp.Tester, plan *relstore.Plan, c *logic.Clause, neg []logic.Atom, known *coverage.Bitset) *logic.Clause {
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
			// Drop only the literals exclusive to this instance: literals
			// shared with kept instances stay (the paper's note under
			// Algorithm 5).
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
			cand := removeLiterals(cur, exclusive)
			cand = logic.PruneNotHeadConnected(cand)
			if len(cand.Body) == 0 || !cand.IsSafe() {
				continue
			}
			if tester.CoversAtMost(cand, neg, baseSet, base) {
				cur = cand
				removedAny = true
				break // instance indexes shifted; recompute
			}
		}
		if !removedAny {
			return cur
		}
	}
}

// removeLiterals returns the clause without the body literals at the given
// sorted indexes.
func removeLiterals(c *logic.Clause, drop []int) *logic.Clause {
	dropSet := make(map[int]bool, len(drop))
	for _, i := range drop {
		dropSet[i] = true
	}
	out := &logic.Clause{Head: c.Head.Clone()}
	for i, a := range c.Body {
		if !dropSet[i] {
			out.Body = append(out.Body, a.Clone())
		}
	}
	return out
}

func intsKey(a []int) string {
	b := make([]byte, 0, len(a)*3)
	for _, v := range a {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
