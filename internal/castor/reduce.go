package castor

import (
	"math"
	"slices"

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
	slices.Sort(out)
	return out
}

// NegativeReduce removes non-essential inclusion instances from the
// clause. An instance is non-essential when dropping its literals (and any
// literals left disconnected from the head) does not increase the number
// of covered negatives, and the clause stays non-empty and safe.
//
// The schedule scans the instances in reverse discovery order and, after
// each kept removal, restarts from the last instance of the shorter
// clause; ilp.Reduce runs it, confirming a chain of removals with one
// check. known optionally carries c's already-computed negative cover.
// Every candidate only removes literals — a generalization — so the base
// cover stays a valid §7.5.4 known-covered set for all of them, and a
// candidate's check stops at the first negative outside it that the
// candidate covers.
func NegativeReduce(tester *ilp.Tester, plan *relstore.Plan, c *logic.Clause, neg []logic.Atom, known *coverage.Bitset) *logic.Clause {
	cur := c.Clone()
	baseSet := tester.CoveredSet(cur, neg, known)
	base := baseSet.Count()
	instances := make(map[*logic.Clause][][]int)
	step := func(cur *logic.Clause, idx int) (*logic.Clause, int, int, bool) {
		insts, ok := instances[cur]
		if !ok {
			insts = InclusionInstances(cur, plan)
			instances[cur] = insts
		}
		if len(insts) <= 1 {
			return nil, 0, 0, false
		}
		for idx = min(idx, len(insts)-1); idx >= 0; idx-- {
			exclusive := exclusiveLiterals(insts, idx)
			if len(exclusive) == 0 {
				continue
			}
			cand := logic.PruneNotHeadConnected(removeLiterals(cur, exclusive))
			if len(cand.Body) == 0 || !cand.IsSafe() {
				continue
			}
			// A kept removal shifts the instance indexes: restart from the
			// shorter clause's last instance.
			return cand, math.MaxInt, idx - 1, true
		}
		return nil, 0, 0, false
	}
	return ilp.Reduce(cur, math.MaxInt, step, func(cand *logic.Clause) bool {
		return tester.CoversAtMost(cand, neg, baseSet, base)
	})
}

// exclusiveLiterals returns the literals of instance idx that no other
// instance holds, ascending: literals shared with kept instances stay (the
// paper's note under Algorithm 5).
func exclusiveLiterals(instances [][]int, idx int) []int {
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
	return exclusive
}

// removeLiterals returns the clause without the body literals at the given
// distinct indexes. The kept atoms share their argument arrays with c's.
func removeLiterals(c *logic.Clause, drop []int) *logic.Clause {
	out := &logic.Clause{Head: c.Head, Body: make([]logic.Atom, 0, len(c.Body)-len(drop))}
	for i, a := range c.Body {
		if !slices.Contains(drop, i) {
			out.Body = append(out.Body, a)
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
