package ilp

import (
	"math"
	"slices"

	"repro/internal/coverage"
	"repro/internal/logic"
	"repro/internal/relstore"
)

// NegativeReduce is negative reduction (§7.2.2), the pass after the
// generalization beam. It removes the non-essential parts of clause c: a
// part is non-essential when the clause without it, and without the
// literals that leaves disconnected from the head, is not empty and covers
// no more negatives. As for Builder and Generalize, the plan picks the
// policy, here the parts and their order:
//   - no plan (ProGolem): single literals, back to front, which keeps
//     early (seed-example) literals preferentially;
//   - a plan (Castor, Algorithm 5): inclusion instances, the images of
//     single literals over a composed schema, so that reduction makes the
//     same decisions over every (de)composition (Lemma 7.8). They go in
//     reverse discovery order, each dropping only the literals no other
//     instance holds, every candidate safe (§7.3), and after each kept
//     removal the schedule restarts from the shorter clause's last
//     instance: a simpler schedule than Algorithm 5's prefix rotation,
//     with the same contract (negative coverage never grows, positive
//     coverage never shrinks, instances stay atomic, the result is safe).
//
// Reduce runs either schedule with chained checks. known optionally
// carries c's negative cover. Every candidate only removes literals, so
// the base cover stays a valid §7.5.4 known-covered set for all of them,
// and a candidate's check stops at the first negative outside it that the
// candidate covers. c is not modified; it is returned when nothing goes.
func NegativeReduce(t *Tester, plan *relstore.Plan, c *logic.Clause, known *coverage.Bitset) *logic.Clause {
	neg := t.prob.Neg
	baseSet := t.CoveredSet(c, neg, known)
	base := baseSet.Count()
	step, start := Step(literalStep), len(c.Body)-1
	if plan != nil {
		step, start = instanceStep(plan), math.MaxInt
	}
	return Reduce(c, start, step, func(cand *logic.Clause) bool {
		return t.CoversAtMost(cand, neg, baseSet, base)
	})
}

// literalStep is ProGolem's schedule: at position i the candidate drops
// literal i; an empty candidate is passed over for the literal before it,
// and a clause of one literal is not reduced.
func literalStep(cur *logic.Clause, i int) (*logic.Clause, int, int, bool) {
	for ; i >= 0 && len(cur.Body) > 1; i-- {
		cand := logic.PruneNotHeadConnected(cur.RemoveBodyAt(i))
		if len(cand.Body) == 0 {
			continue
		}
		return cand, min(i, len(cand.Body)) - 1, i - 1, true
	}
	return nil, 0, 0, false
}

// instanceStep is Castor's schedule: at position idx the candidate drops
// the literals of instance idx that no other instance holds (shared ones
// stay, the paper's note under Algorithm 5); an instance with none, or
// whose candidate is empty or unsafe, is passed over for the one before
// it, and a clause of one instance is not reduced. A kept removal shifts
// the instance indexes, so the schedule restarts from the shorter clause's
// last instance. Reduce comes back to a clause after a failed check, so a
// clause's instances, with the number of instances holding each literal,
// are found once.
func instanceStep(plan *relstore.Plan) Step {
	type instances struct {
		insts   [][]int
		holders []int32 // per literal
	}
	walk, found := newInstanceWalk(plan), make(map[*logic.Clause]instances)
	return func(cur *logic.Clause, idx int) (*logic.Clause, int, int, bool) {
		in, ok := found[cur]
		if !ok {
			in = instances{walk.instances(cur), make([]int32, len(cur.Body))}
			for _, inst := range in.insts {
				for _, li := range inst {
					in.holders[li]++
				}
			}
			found[cur] = in
		}
		if len(in.insts) <= 1 {
			return nil, 0, 0, false
		}
		keep := make([]bool, len(cur.Body))
		for idx = min(idx, len(in.insts)-1); idx >= 0; idx-- {
			drop := false
			for k := range keep {
				keep[k] = true
			}
			for _, li := range in.insts[idx] {
				if in.holders[li] == 1 {
					keep[li], drop = false, true
				}
			}
			if !drop {
				continue
			}
			cand := logic.PruneNotHeadConnected(cur.Keep(keep))
			if len(cand.Body) == 0 || !cand.IsSafe() {
				continue
			}
			return cand, math.MaxInt, idx - 1, true
		}
		return nil, 0, 0, false
	}
}

// InclusionInstances groups the clause's body literal indexes into
// instances of inclusion classes: for each literal, the literals its IND
// partners reach, hop after hop, that stand for the same joined row. As in
// bottom-clause construction, the walk tracks the row being assembled,
// attribute by attribute, and admits a partner only when it agrees with
// the row on every attribute the row holds: without that, one shared
// entity literal (one color id referenced by many movies) would glue every
// row's literals into a single unremovable blob. A literal that is not one
// of a schema relation's (an unknown predicate or the wrong arity) joins
// no instance but its own. Each instance lists its literals ascending;
// literals in no class form singleton instances; instances may share
// literals; duplicate closures are emitted once, in first-literal order.
func InclusionInstances(c *logic.Clause, plan *relstore.Plan) [][]int {
	return newInstanceWalk(plan).instances(c)
}

// instanceWalk finds the inclusion instances of clauses over one plan. It
// numbers the attributes of the plan's relations once, so that the row a
// walk assembles is a slice by attribute id, and keeps its buffers from
// clause to clause: Castor's step walks every clause of a reduction with
// one.
type instanceWalk struct {
	plan  *relstore.Plan
	attrs map[string][]int32 // per relation, its columns' attribute ids
	row   []logic.Term       // by attribute id
	// Each walk takes the next number after walks and marks with it the
	// attributes its row holds (rowMark) and the literals it reached
	// (litMark), so no walk clears what the last one set. The other
	// slices are instances' buffers.
	walks                 int32
	rowMark, litMark, of  []int32
	inst, members, starts []int
}

func newInstanceWalk(plan *relstore.Plan) *instanceWalk {
	w := &instanceWalk{plan: plan, attrs: make(map[string][]int32)}
	ids := make(map[string]int32)
	for _, rel := range plan.Schema().Relations() {
		attrs := make([]int32, len(rel.Attrs))
		for pos, name := range rel.Attrs {
			a, seen := ids[name]
			if !seen {
				a = int32(len(ids))
				ids[name] = a
			}
			attrs[pos] = a
		}
		w.attrs[rel.Name] = attrs
	}
	w.row, w.rowMark = make([]logic.Term, len(ids)), make([]int32, len(ids))
	return w
}

// instances is InclusionInstances of c.
func (w *instanceWalk) instances(c *logic.Clause) [][]int {
	n := len(c.Body)
	ip := newINDPartners(c.Body, w.plan)
	if cap(w.litMark) < n {
		w.litMark, w.of = make([]int32, n), make([]int32, n)
	}
	litMark := w.litMark[:n]
	// admit adds literal k's attributes to the row of the walk marked mark
	// and reports true, unless the literal is not one of a schema
	// relation's or disagrees with the row.
	admit := func(k int, mark int32) bool {
		args := c.Body[k].Args
		attrs, ok := w.attrs[c.Body[k].Pred]
		if !ok || len(attrs) != len(args) {
			return false
		}
		for pos, a := range attrs {
			if w.rowMark[a] == mark && w.row[a] != args[pos] {
				return false
			}
		}
		for pos, a := range attrs {
			w.row[a], w.rowMark[a] = args[pos], mark
		}
		return true
	}
	// Instance i is members[starts[i]:starts[i+1]]; the closure of literal
	// j is instance of[j].
	members, starts, inst, of := w.members[:0], append(w.starts[:0], 0), w.inst[:0], w.of[:n]
	for j := range n {
		w.walks++
		mark := w.walks
		// Literal j is in its closure whatever admit says. inst is the
		// walk's queue, then the closure.
		litMark[j] = mark
		admit(j, mark)
		inst = append(inst[:0], j)
		for q := 0; q < len(inst); q++ {
			cur := inst[q]
			for h := ip.lits[cur]; h < ip.lits[cur+1]; h++ {
				for _, k := range ip.partners[ip.hops[h]:ip.hops[h+1]] {
					if litMark[k] != mark && admit(int(k), mark) {
						litMark[k] = mark
						inst = append(inst, int(k))
					}
				}
			}
		}
		slices.Sort(inst)
		// An earlier instance equal to this closure was first emitted by
		// the closure of one of its literals before j, which this closure
		// holds too.
		of[j] = int32(len(starts) - 1)
		for _, k := range inst[:slices.Index(inst, j)] {
			if o := of[k]; slices.Equal(members[starts[o]:starts[o+1]], inst) {
				of[j] = o
				break
			}
		}
		if int(of[j]) == len(starts)-1 {
			members = append(members, inst...)
			starts = append(starts, len(members))
		}
	}
	w.members, w.starts, w.inst = members, starts, inst
	members = slices.Clone(members)
	out := make([][]int, len(starts)-1)
	for i := range out {
		out[i] = members[starts[i]:starts[i+1]:starts[i+1]]
	}
	return out
}

// Step is one move of a greedy removal schedule, the shape of Castor's and
// ProGolem's negative reductions: at position pos of clause cur it returns
// the next candidate to check (cur without some of its literals), the
// position the schedule goes on from in cand when the check passes and
// the one it goes on from in cur when the check fails. ok false ends the
// schedule at cur.
type Step func(cur *logic.Clause, pos int) (cand *logic.Clause, pass, fail int, ok bool)

// Reduce runs the removal schedule from position start of c and returns
// the clause it ends at: the end state of checking candidate after
// candidate, with fewer checks. check must be monotone under removal: a
// candidate whose body is a subsequence of a failed candidate's body
// fails too (coverage only grows as literals go, §7.5.4). So:
//   - a candidate some failed candidate's body contains fails unchecked,
//     and the schedule goes on from its fail state;
//   - Reduce follows the pass states of the other candidates to the end of
//     the schedule and checks only that chain's last candidate, whose body
//     every candidate before it contains: its pass vouches for them all;
//   - when that check fails, it bisects the chain for the first failing
//     candidate and goes on from that candidate's fail state.
func Reduce(c *logic.Clause, start int, step Step, check func(*logic.Clause) bool) *logic.Clause {
	// link is one candidate of a chain, the clause it was drawn from and
	// the position its fail state goes on from.
	type link struct {
		cur, cand *logic.Clause
		fail      int
	}
	var failed []*logic.Clause
	refuted := func(cand *logic.Clause) bool {
		for _, f := range failed {
			if subsequence(cand.Body, f.Body) {
				return true
			}
		}
		return false
	}
	var chain []link
	cur, pos := c, start
	for {
		chain = chain[:0]
		for at, p := cur, pos; ; {
			cand, pass, fail, ok := step(at, p)
			if !ok {
				break
			}
			if refuted(cand) {
				p = fail
				continue
			}
			chain = append(chain, link{cur: at, cand: cand, fail: fail})
			at, p = cand, pass
		}
		if len(chain) == 0 {
			return cur
		}
		last := len(chain) - 1
		if check(chain[last].cand) {
			return chain[last].cand
		}
		failed = append(failed, chain[last].cand)
		// Links before lo pass; link hi fails.
		lo, hi := 0, last
		for lo < hi {
			mid := (lo + hi) / 2
			if check(chain[mid].cand) {
				lo = mid + 1
			} else {
				failed = append(failed, chain[mid].cand)
				hi = mid
			}
		}
		cur, pos = chain[hi].cur, chain[hi].fail
	}
}

// subsequence reports whether a is b with some atoms left out, in order.
func subsequence(a, b []logic.Atom) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && !b[j].Equal(x) {
			j++
		}
		if j == len(b) {
			return false
		}
		j++
	}
	return true
}
