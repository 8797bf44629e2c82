package ilp

import (
	"sort"

	"repro/internal/coverage"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
)

// The generalization search of the bottom-up learners: ProGolem's beam
// search over ARMGs of a seed's bottom clause (§6.4, Algorithm 3), which
// Castor's Algorithm 4 runs with IND-preserving ARMG (§7.2.1) and safe
// clauses (§7.3), then negative reduction. As for Builder, a plan picks
// Castor's policy and no plan ProGolem's; each learner keeps its own
// bottom clause.

// entry is one beam entry with its coverage, which its generalizations
// inherit as §7.5.4 knowns: pos over the uncovered positives, neg over
// all negatives.
type entry struct {
	clause   *logic.Clause
	pos, neg *coverage.Bitset
	score    float64

	// Provenance: id is the entry's node once its disposition is known;
	// until then parent and seed hold the node of the entry its ARMG
	// generalized and the example it generalized toward.
	id, parent uint64
	seed       logic.Atom
}

// Generalize runs the beam search over ARMGs of bottom, the bottom clause
// of seed, whose provenance node is bottomID, against the uncovered
// positives and the problem's negatives. It returns the best clause the
// search reaches after NegativeReduce under the same policy, which starts
// from the winner's negative cover, with that clause's provenance node.
//
// Each round generalizes every beam entry toward Sample drawn positives,
// scores the ARMGs as one batch that must beat the best score so far, and
// keeps the BeamWidth best, ties in discovery order; the search ends when
// no ARMG beats it. The plan picks the policy:
//   - no plan (ProGolem): draw among all uncovered positives, keep unsafe
//     ARMGs, and ARMG drops one blocking atom at a time;
//   - a plan (Castor): draw among the positives the best entry does not
//     cover yet, since ARMG toward a covered example is the identity; drop
//     unsafe ARMGs unscored (§7.3.2), recording each as pruned_unsafe; and
//     ARMG restores the plan's INDs after each drop.
func Generalize(t *Tester, plan *relstore.Plan, rng *Rand, seed logic.Atom, bottom *logic.Clause, bottomID uint64,
	uncovered []logic.Atom) (*logic.Clause, uint64) {
	run, prov, neg := t.run, t.run.Prov(), t.prob.Neg
	root := &entry{clause: bottom, id: bottomID}
	root.pos = t.CoveredSet(bottom, uncovered, nil)
	root.neg = t.CoveredSet(bottom, neg, nil)
	root.score = float64(root.pos.Count() - root.neg.Count())
	beam := []*entry{root}
	k, width := max(t.params.Sample, 1), max(t.params.BeamWidth, 1)
	for iter := 0; ; iter++ {
		sr := run.StartSpan("beam_round", obs.F("iter", iter), obs.F("beam", len(beam)))
		best := beam[0] // the beam is sorted by score
		pool := uncovered
		if plan != nil {
			pool = make([]logic.Atom, 0, len(uncovered))
			for i, e := range uncovered {
				if !best.pos.Get(i) {
					pool = append(pool, e)
				}
			}
		}
		if len(pool) == 0 {
			sr.End()
			break
		}
		sample := SampleAtoms(rng, pool, k)
		// One independent ARMG job per (beam entry, sampled example); the
		// batch then scores concurrently, abandoning candidates that
		// provably cannot beat the best score (they would not enter the
		// beam). ARMGs only drop literals, so each candidate inherits its
		// entry's covered sets as knowns.
		origin := func(i int) (*entry, logic.Atom) { return beam[i/len(sample)], sample[i%len(sample)] }
		var cands []coverage.Candidate
		var from []int // aligned with cands: the index of each one's ARMG
		for i, g := range armgs(t, plan, beam, sample) {
			b, e := origin(i)
			if g == nil || g.Equal(b.clause) {
				if g != nil {
					armgNode(prov, b.id, e, g, -1, -1, -1, obs.DispPrunedDuplicate)
				}
				continue
			}
			if plan != nil && !g.IsSafe() {
				// §7.3.2: unsafe candidates are discarded unscored.
				armgNode(prov, b.id, e, g, -1, -1, -1, obs.DispPrunedUnsafe)
				continue
			}
			cands = append(cands, coverage.Candidate{Clause: g, KnownPos: b.pos, KnownNeg: b.neg})
			from = append(from, i)
		}
		var next []*entry
		for ci, s := range t.ScoreBatch(cands, uncovered, neg, int(best.score), width) {
			b, e := origin(from[ci])
			switch sc := float64(s.P - s.N); {
			case s.Pruned:
				// Scoring was abandoned mid-scan: the counts are unknown.
				armgNode(prov, b.id, e, s.Clause, -1, -1, -1, obs.DispPrunedBudget)
			case sc > best.score:
				next = append(next, &entry{clause: s.Clause, pos: s.Pos, neg: s.Neg, score: sc, parent: b.id, seed: e})
			default:
				armgNode(prov, b.id, e, s.Clause, s.P, s.N, sc, obs.DispPrunedScore)
			}
		}
		if len(next) == 0 {
			sr.End()
			break
		}
		// Keep the N best, ties in discovery order for determinism.
		// Dispositions are final only after the width trim.
		sort.SliceStable(next, func(i, j int) bool { return next[i].score > next[j].score })
		for i, b := range next {
			disp := obs.DispKept
			if i >= width {
				disp = obs.DispPrunedScore
			}
			b.id = armgNode(prov, b.parent, b.seed, b.clause, b.pos.Count(), b.neg.Count(), b.score, disp)
		}
		beam = next[:min(len(next), width)]
		sr.Annotate(obs.F("candidates", len(cands)), obs.F("best", beam[0].score),
			obs.F("literals", len(beam[0].clause.Body)))
		sr.End()
	}
	best := beam[0]
	sn := run.StartSpan("negative_reduction", obs.F("literals", len(best.clause.Body)))
	reduced := NegativeReduce(t, plan, best.clause, best.neg)
	sn.Annotate(obs.F("kept", len(reduced.Body)))
	sn.End()
	if !prov.Enabled() || reduced.Equal(best.clause) {
		return reduced, best.id
	}
	return reduced, prov.Node(obs.ProvNode{
		Parents: []uint64{best.id}, Step: obs.StepNegativeReduction, Seed: seed.String(),
		Clause: reduced.String(), Literals: len(reduced.Body),
		Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept,
	})
}

// armgNode records the provenance node of an ARMG of the entry whose node
// is parent toward seed, when the run records provenance. p, n and score
// are -1 for a candidate that was never scored.
func armgNode(prov *obs.Prov, parent uint64, seed logic.Atom, c *logic.Clause, p, n int, score float64, disp string) uint64 {
	if !prov.Enabled() {
		return 0
	}
	return prov.Node(obs.ProvNode{
		Parents: []uint64{parent}, Step: obs.StepARMG, Seed: seed.String(),
		Clause: c.String(), Literals: len(c.Body),
		Pos: p, Neg: n, Score: score, Disposition: disp,
	})
}

// armgs generalizes every beam entry toward every sampled example on the
// tester's rounds. The ARMG of beam[i] toward sample[j] lands at index
// i·len(sample)+j, so the caller reads them in the order a serial loop
// over the beam and then the sample would make them. Each entry is
// prepared once, before the round, and its jobs share the preparation: a
// job that waited for another to prepare its entry would cost more than
// the preparation.
func armgs(t *Tester, plan *relstore.Plan, beam []*entry, sample []logic.Atom) []*logic.Clause {
	preps := make([]armgPrep, len(beam))
	for i, b := range beam {
		preps[i].init(t, plan, b.clause)
	}
	out := make([]*logic.Clause, len(beam)*len(sample))
	t.Fan("armg", len(out), func(i int) {
		out[i] = t.armg(&preps[i/len(sample)], sample[i%len(sample)])
	})
	return out
}

// armgPrep is a beam entry's clause prepared for the ARMG jobs that
// generalize it, which share it read-only: its coverage test, which tests
// any sub-clause under a keep mask too, its literals' variable ids, and,
// under a plan, its literals' IND partners.
type armgPrep struct {
	clause *logic.Clause
	test   prepared
	vars   logic.ClauseVars
	inds   *indPartners // nil without a plan
}

func (pe *armgPrep) init(t *Tester, plan *relstore.Plan, c *logic.Clause) {
	pe.clause, pe.test, pe.vars = c, t.prepare(c), logic.NewClauseVars(c)
	if plan != nil {
		ip := newINDPartners(c.Body, plan)
		pe.inds = &ip
	}
}

// ARMG generalizes clause c to cover example e (Algorithm 3): it drops
// blocking atoms, and the literals left disconnected from the head, until
// the clause covers e. With a plan it is Castor's ARMG (§7.2.1): after
// each drop EnforceINDs also removes the literals whose IND partners went,
// so the canonical database instance of the clause keeps satisfying the
// plan's INDs (Lemma 7.7). Example 7.6: dropping inPhase(x, prelim) over
// the Original schema also drops student(x) and yearsInProgram(x, 3),
// exactly mirroring the removal of student(x, prelim, 3) over 4NF. The
// input clause is not modified; nil is returned when e cannot be covered
// (its head does not match).
func ARMG(t *Tester, plan *relstore.Plan, c *logic.Clause, e logic.Atom) *logic.Clause {
	var pe armgPrep
	pe.init(t, plan, c)
	return t.armg(&pe, e)
}

// armg is ARMG of the prepared clause on a keep mask over its literals:
// the coverage tests, the blocking-atom search, the drop, the IND
// restoration and the head-connectivity pruning all read or write the
// mask, and the generalization is built once, at the end. Its tests run
// on one probe, published when it returns.
func (t *Tester) armg(pe *armgPrep, e logic.Atom) *logic.Clause {
	t.run.Inc(obs.CARMGCalls)
	c := pe.clause
	if !headMatches(c.Head, e) {
		return nil
	}
	n := len(c.Body)
	scratch := make([]bool, 3*n+pe.vars.NumVars())
	keep, prefix, connected, reach := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	for k := range keep {
		keep[k] = true
	}
	kept := make([]int32, 0, n)
	s := t.singles()
	defer s.done()
	for !s.covers(pe.test, keep, e) {
		i := s.blockingAtom(pe.test, keep, prefix, kept, e)
		if i < 0 {
			return nil // cannot happen when the head matches, but stay safe
		}
		keep[i] = false
		if pe.inds != nil {
			pe.inds.enforce(keep)
		}
		pe.vars.HeadConnected(keep, connected, reach)
		copy(keep, connected)
	}
	return c.Keep(keep)
}

// headMatches reports whether the head maps onto the ground example e, as
// logic.MatchAtoms decides it but with no substitution: the same
// predicate and arity, e's constant wherever the head holds a constant,
// and equal constants of e wherever the head repeats a variable.
func headMatches(head, e logic.Atom) bool {
	if head.Pred != e.Pred || len(head.Args) != len(e.Args) {
		return false
	}
	for i, t := range head.Args {
		if !t.IsVar {
			if t != e.Args[i] {
				return false
			}
			continue
		}
		for j, u := range head.Args[:i] {
			if u == t && e.Args[j] != e.Args[i] {
				return false
			}
		}
	}
	return true
}

// BlockingAtom returns the least 0-based index i such that the prefix
// clause T ← L1,…,L(i+1) does not cover e, by binary search over the
// monotone prefix-coverage sequence: −1 when c has no body or its head
// alone does not cover e.
func BlockingAtom(tester *Tester, c *logic.Clause, e logic.Atom) int {
	n := len(c.Body)
	keep := make([]bool, 2*n)
	for k := range n {
		keep[k] = true
	}
	s := tester.singles()
	defer s.done()
	return s.blockingAtom(tester.prepare(c), keep[:n], keep[n:], make([]int32, 0, n), e)
}

// blockingAtom is BlockingAtom of the sub-clause keep leaves of the
// prepared clause: it returns the index, among all the clause's literals,
// of the kept literal whose prefix of kept literals is the shortest not to
// cover e. prefix is scratch of len(keep); kept is scratch of capacity
// len(keep).
func (s *singles) blockingAtom(pc prepared, keep, prefix []bool, kept []int32, e logic.Atom) int {
	kept = kept[:0]
	for k, in := range keep {
		if in {
			kept = append(kept, int32(k))
		}
	}
	if len(kept) == 0 {
		return -1
	}
	covers := func(m int) bool { // the prefix of the first m kept literals
		clear(prefix)
		for _, k := range kept[:m] {
			prefix[k] = true
		}
		return s.covers(pc, prefix, e)
	}
	lo, hi := 0, len(kept) // prefix lengths: lo covers, hi does not
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if covers(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == 0 && !covers(0) {
		return -1
	}
	return int(kept[hi-1])
}

// EnforceINDs removes body literals until every remaining literal satisfies
// all its IND hops within the clause: for each hop R1[X] ⋈ R2[X] out of a
// literal R1(u), some literal R2(v) must agree with u on the join
// positions. Removals cascade to a fixpoint.
func EnforceINDs(c *logic.Clause, plan *relstore.Plan) *logic.Clause {
	keep := make([]bool, len(c.Body))
	for k := range keep {
		keep[k] = true
	}
	ip := newINDPartners(c.Body, plan)
	ip.enforce(keep)
	return c.Keep(keep)
}

// indPartners lists, per body literal of a clause, the partners of each
// IND hop out of its relation: for a hop R1[X] ⋈ R2[X] out of R1(u), the
// literals R2(v) that agree with u on the join positions. ARMG's IND
// restoration and InclusionInstances read them. A hop naming a
// position past the literal's arity is left out: the literal is not one of
// the schema relation's. Literal i's hops are hops[lits[i]:lits[i+1]], and
// hop h's partners are partners[hops[h]:hops[h+1]].
type indPartners struct {
	lits, hops, partners []int32
}

func newINDPartners(body []logic.Atom, plan *relstore.Plan) indPartners {
	ip := indPartners{lits: make([]int32, 1, len(body)+1), hops: []int32{0}}
	for _, lit := range body {
	hops:
		for _, hop := range plan.Partners(lit.Pred) {
			for _, sp := range hop.SrcPos {
				if sp >= len(lit.Args) {
					continue hops
				}
			}
			for j, other := range body {
				if joins(lit, other, hop) {
					ip.partners = append(ip.partners, int32(j))
				}
			}
			ip.hops = append(ip.hops, int32(len(ip.partners)))
		}
		ip.lits = append(ip.lits, int32(len(ip.hops)-1))
	}
	return ip
}

// enforce clears from keep every literal with a hop none of whose partners
// keep marks, cascading to a fixpoint: the largest sub-clause in which
// every literal satisfies all its hops, whatever the order of removals.
func (ip *indPartners) enforce(keep []bool) {
	for changed := true; changed; {
		changed = false
		for i, in := range keep {
			if in && !ip.satisfied(i, keep) {
				keep[i] = false
				changed = true
			}
		}
	}
}

// satisfied reports whether every hop out of literal i has a partner that
// keep marks.
func (ip *indPartners) satisfied(i int, keep []bool) bool {
hops:
	for h := ip.lits[i]; h < ip.lits[i+1]; h++ {
		for _, j := range ip.partners[ip.hops[h]:ip.hops[h+1]] {
			if keep[j] {
				continue hops
			}
		}
		return false
	}
	return true
}

// joins reports whether other is lit's partner for the hop: a literal of
// the hop's relation that agrees with lit on the join positions.
func joins(lit, other logic.Atom, hop relstore.PlanPartner) bool {
	if other.Pred != hop.Rel {
		return false
	}
	for i, sp := range hop.SrcPos {
		if dp := hop.DstPos[i]; dp >= len(other.Args) || lit.Args[sp] != other.Args[dp] {
			return false
		}
	}
	return true
}
