// Package progolem implements ProGolem (Muggleton, Santos &
// Tamaddoni-Nezhad 2009), the bottom-up learner of §6.4: it saturates a
// seed example into an ordered bottom clause and generalizes it with the
// asymmetric relative minimal generalization (ARMG) operator — dropping
// *blocking atoms* until a second positive example is covered — inside a
// beam search, followed by negative reduction.
//
// Theorem 6.6: ProGolem is not schema independent, because both the
// depth-bounded bottom clause (Lemma 6.3) and the literal-at-a-time ARMG
// (Example 6.5) depend on how relations are (de)composed.
package progolem

import (
	"sort"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Learner is the ProGolem algorithm.
type Learner struct{}

// New returns a ProGolem learner.
func New() *Learner { return &Learner{} }

// Name implements ilp.Learner.
func (l *Learner) Name() string { return "ProGolem" }

// Learn implements ilp.Learner.
func (l *Learner) Learn(prob *ilp.Problem, params ilp.Params) (*logic.Definition, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	tester := ilp.NewTester(prob, params)
	bld := ilp.NewBuilder(prob, nil)
	rng := ilp.NewRand(params.Seed)
	learn := func(uncovered []logic.Atom) (*logic.Clause, error) {
		return l.learnClause(prob, params, tester, bld, rng, uncovered), nil
	}
	run := params.Obs
	sp := run.StartSpan("learn",
		obs.F("learner", "progolem"), obs.F("target", prob.Target.Name),
		obs.F("pos", len(prob.Pos)), obs.F("neg", len(prob.Neg)))
	def, err := ilp.Cover(prob, params, tester, learn)
	if def != nil {
		sp.Annotate(obs.F("clauses", def.Len()))
	}
	sp.End()
	return def, err
}

// scored is one beam entry with its coverage, which its generalizations
// inherit as §7.5.4 knowns.
type scored struct {
	clause   *logic.Clause
	pos, neg *coverage.Bitset
	score    float64

	provID     uint64 // provenance node once the disposition is known
	provParent uint64
	provSeed   string
}

// learnClause runs the beam search over ARMGs of the seed's bottom clause.
func (l *Learner) learnClause(prob *ilp.Problem, params ilp.Params, tester *ilp.Tester, bld *ilp.Builder, rng *ilp.Rand, uncovered []logic.Atom) *logic.Clause {
	run := params.Obs
	prov := run.Prov()
	seed := uncovered[0]
	var sb *obs.Span
	if run.Spanning() {
		sb = run.StartSpan("bottom_clause", obs.F("seed", seed.String()))
	}
	bottom := ilp.Variablize(prob, bld.Build(seed, params, nil))
	sb.Annotate(obs.F("literals", len(bottom.Body)))
	sb.End()
	run.Inc(obs.CBottomClauses)
	run.Add(obs.CBottomLiterals, int64(len(bottom.Body)))
	var rootID uint64
	if prov.Enabled() {
		rootID = prov.Node(obs.ProvNode{
			Step: obs.StepSeedBottom, Seed: seed.String(),
			Clause: bottom.String(), Literals: len(bottom.Body),
			Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept,
		})
	}

	evaluate := func(c *logic.Clause) scored {
		pc := tester.CoveredSet(c, uncovered, nil)
		nc := tester.CoveredSet(c, prob.Neg, nil)
		return scored{clause: c, pos: pc, neg: nc, score: float64(pc.Count() - nc.Count())}
	}
	root := evaluate(bottom)
	root.provID = rootID
	beam := []scored{root}
	k := params.Sample
	if k < 1 {
		k = 1
	}
	width := params.BeamWidth
	if width < 1 {
		width = 1
	}

	for iter := 0; ; iter++ {
		sr := run.StartSpan("beam_round", obs.F("iter", iter), obs.F("beam", len(beam)))
		bestScore := beam[0].score
		for _, b := range beam {
			if b.score > bestScore {
				bestScore = b.score
			}
		}
		sample := ilp.SampleAtoms(rng, uncovered, k)
		// ARMGs drop literals, so each candidate generalizes its beam
		// parent and inherits its covered sets as §7.5.4 knowns. They are
		// generated as independent jobs; the batch then scores
		// concurrently, abandoning candidates that provably cannot beat
		// the current best (they would not enter the beam).
		var cands []coverage.Candidate
		type candProv struct {
			parent uint64
			seed   string
		}
		var cmeta []candProv // aligned with cands; built only when recording
		for i, g := range armgs(tester, beam, sample) {
			b, e := beam[i/len(sample)], sample[i%len(sample)]
			if g == nil || g.Equal(b.clause) {
				if g != nil && prov.Enabled() {
					prov.Node(obs.ProvNode{
						Parents: []uint64{b.provID}, Step: obs.StepARMG, Seed: e.String(),
						Clause: g.String(), Literals: len(g.Body),
						Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispPrunedDuplicate,
					})
				}
				continue
			}
			cands = append(cands, coverage.Candidate{Clause: g, KnownPos: b.pos, KnownNeg: b.neg})
			if prov.Enabled() {
				cmeta = append(cmeta, candProv{parent: b.provID, seed: e.String()})
			}
		}
		var newCands []scored
		for ci, s := range tester.ScoreBatch(cands, uncovered, prob.Neg, int(bestScore), width) {
			if s.Pruned {
				if prov.Enabled() {
					prov.Node(obs.ProvNode{
						Parents: []uint64{cmeta[ci].parent}, Step: obs.StepARMG, Seed: cmeta[ci].seed,
						Clause: s.Clause.String(), Literals: len(s.Clause.Body),
						Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispPrunedBudget,
					})
				}
				continue
			}
			if sc := float64(s.P - s.N); sc > bestScore {
				ns := scored{clause: s.Clause, pos: s.Pos, neg: s.Neg, score: sc}
				if prov.Enabled() {
					ns.provParent, ns.provSeed = cmeta[ci].parent, cmeta[ci].seed
				}
				newCands = append(newCands, ns)
			} else if prov.Enabled() {
				prov.Node(obs.ProvNode{
					Parents: []uint64{cmeta[ci].parent}, Step: obs.StepARMG, Seed: cmeta[ci].seed,
					Clause: s.Clause.String(), Literals: len(s.Clause.Body),
					Pos: s.P, Neg: s.N, Score: float64(s.P - s.N), Disposition: obs.DispPrunedScore,
				})
			}
		}
		if len(newCands) == 0 {
			sr.End()
			break
		}
		// Keep the N highest-scoring candidates, ties in discovery order.
		sort.SliceStable(newCands, func(i, j int) bool { return newCands[i].score > newCands[j].score })
		if prov.Enabled() {
			// Dispositions are final only after the width trim.
			for i := range newCands {
				b := &newCands[i]
				disp := obs.DispKept
				if i >= width {
					disp = obs.DispPrunedScore
				}
				b.provID = prov.Node(obs.ProvNode{
					Parents: []uint64{b.provParent}, Step: obs.StepARMG, Seed: b.provSeed,
					Clause: b.clause.String(), Literals: len(b.clause.Body),
					Pos: b.pos.Count(), Neg: b.neg.Count(), Score: b.score, Disposition: disp,
				})
			}
		}
		if len(newCands) > width {
			newCands = newCands[:width]
		}
		beam = newCands
		sr.Annotate(obs.F("candidates", len(cands)), obs.F("best", beam[0].score))
		sr.End()
	}
	// Highest-scoring clause in the beam, negatively reduced.
	best := beam[0]
	for _, b := range beam {
		if b.score > best.score {
			best = b
		}
	}
	sn := run.StartSpan("negative_reduction", obs.F("literals", len(best.clause.Body)))
	reduced := NegativeReduce(tester, best.clause, prob.Neg, best.neg)
	sn.Annotate(obs.F("kept", len(reduced.Body)))
	sn.End()
	if prov.Enabled() && !reduced.Equal(best.clause) {
		prov.Node(obs.ProvNode{
			Parents: []uint64{best.provID}, Step: obs.StepNegativeReduction, Seed: seed.String(),
			Clause: reduced.String(), Literals: len(reduced.Body),
			Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept,
		})
	}
	if len(reduced.Body) == 0 {
		return nil
	}
	return reduced
}

// armgs generalizes every beam entry toward every sampled example on the
// tester's rounds. The ARMG of beam[i] toward sample[j] lands at index
// i·len(sample)+j, so the caller reads them in the order a serial loop
// over the beam and then the sample would make them.
func armgs(tester *ilp.Tester, beam []scored, sample []logic.Atom) []*logic.Clause {
	out := make([]*logic.Clause, len(beam)*len(sample))
	tester.Fan("armg", len(out), func(i int) {
		out[i] = ARMG(tester, beam[i/len(sample)].clause, sample[i%len(sample)])
	})
	return out
}

// ARMG implements Algorithm 3: drop blocking atoms (and literals left
// disconnected from the head) until the clause covers e2. The input clause
// is not modified; nil is returned when e2 cannot be covered (wrong head
// shape).
func ARMG(tester *ilp.Tester, c *logic.Clause, e2 logic.Atom) *logic.Clause {
	tester.Run().Inc(obs.CARMGCalls)
	if _, ok := logic.MatchAtoms(c.Head, e2, logic.NewSubstitution()); !ok {
		return nil
	}
	cur := c.Clone()
	for !tester.Covers(cur, e2) {
		i := ilp.BlockingAtom(tester, cur, e2)
		if i < 0 {
			return nil // cannot happen when the head matches, but stay safe
		}
		cur = logic.PruneNotHeadConnected(cur.RemoveBodyAt(i))
	}
	return cur
}

// NegativeReduce removes non-essential literals: a literal is
// non-essential when dropping it (plus any literals left disconnected)
// does not increase the clause's negative coverage (§7.2.2 at literal
// granularity, as in ProGolem). The schedule walks the literals back to
// front, which keeps early (seed-example) literals preferentially;
// ilp.Reduce runs it, confirming a chain of removals with one check.
//
// known optionally carries c's negative cover; every candidate here only
// removes literals, so it stays a valid known-covered set throughout, and
// a candidate's check stops at the first negative outside it that the
// candidate covers.
func NegativeReduce(tester *ilp.Tester, c *logic.Clause, neg []logic.Atom, known *coverage.Bitset) *logic.Clause {
	cur := c.Clone()
	baseSet := tester.CoveredSet(cur, neg, known)
	base := baseSet.Count()
	step := func(cur *logic.Clause, i int) (*logic.Clause, int, int, bool) {
		for ; i >= 0 && len(cur.Body) > 1; i-- {
			cand := logic.PruneNotHeadConnected(cur.RemoveBodyAt(i))
			if len(cand.Body) == 0 {
				continue
			}
			return cand, min(i, len(cand.Body)) - 1, i - 1, true
		}
		return nil, 0, 0, false
	}
	return ilp.Reduce(cur, len(cur.Body)-1, step, func(cand *logic.Clause) bool {
		return tester.CoversAtMost(cand, neg, baseSet, base)
	})
}
