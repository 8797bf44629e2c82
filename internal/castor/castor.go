// Package castor implements Castor, the paper's contribution (§7): a
// bottom-up relational learner that is schema independent under vertical
// composition/decomposition. Castor follows ProGolem's covering + beam
// search strategy but integrates inclusion dependencies (INDs) into every
// phase:
//
//   - bottom-clause construction chases INDs with equality so that the
//     tuples of a decomposed relation always enter the clause together, and
//     stops on a distinct-variable budget rather than a depth bound
//     (§7.1, Lemma 7.5);
//   - ARMG re-establishes the INDs after dropping a blocking atom, removing
//     literals whose free tuples no longer satisfy any IND (§7.2.1,
//     Lemma 7.7);
//   - negative reduction removes non-essential *instances of inclusion
//     classes* — whole groups of IND-linked literals — instead of single
//     literals (§7.2.2, Lemma 7.8), keeping clauses safe (§7.3);
//   - clauses are minimized by θ-subsumption reduction (§7.5.5), coverage
//     tests run in parallel and reuse parent results (§7.5.3–7.5.4), and
//     per-schema access plans play the role of stored procedures (§7.5.2).
//
// The §7.4 extensions are available through Params: PromoteINDs runs the
// preprocessing that upgrades subset INDs holding as equalities, and
// SubsetINDs chases general subset INDs directly (Table 12's
// configuration, robust but not fully schema independent).
package castor

import (
	"sort"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/subsume"
)

// Learner is the Castor algorithm.
type Learner struct{}

// New returns a Castor learner.
func New() *Learner { return &Learner{} }

// Name implements ilp.Learner.
func (l *Learner) Name() string { return "Castor" }

// reduceCutoff bounds the clause size on which θ-subsumption minimization
// is attempted.
const reduceCutoff = 200

// maxINDJoin caps how many partner tuples one tuple may pull in through a
// single IND hop during bottom-clause construction (the paper uses 10).
const maxINDJoin = 10

// Learn implements ilp.Learner.
func (l *Learner) Learn(prob *ilp.Problem, params ilp.Params) (*logic.Definition, error) {
	// Leave crash evidence behind: a panic anywhere in the learn dumps the
	// flight-recorder ring (when one is attached) before unwinding on.
	defer func() {
		if r := recover(); r != nil {
			params.Obs.Flight().DumpNow("panic") //nolint:errcheck // best-effort crash dump
			panic(r)
		}
	}()
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	schema := prob.Instance.Schema()
	if params.PromoteINDs {
		schema = prob.Instance.PromoteEqualityINDs()
	}
	run := params.Obs
	var bld *builder
	if params.UseStoredProc {
		// Compiled once and reused across every bottom clause — the
		// stored-procedure configuration (§7.5.2).
		bld = newBuilder(prob, relstore.CompilePlan(schema, params.SubsetINDs))
		run.Inc(obs.CPlanCompiles)
	}
	tester := ilp.NewTester(prob, params)
	if params.CoverageMode == ilp.CoverageSubsumption {
		// Coverage via θ-subsumption against *IND-chased* ground bottom
		// clauses (§7.5.3) — the classic saturation would reintroduce
		// schema dependence at the coverage level.
		sat := bld
		if sat == nil {
			sat = newBuilder(prob, relstore.CompilePlan(schema, params.SubsetINDs))
			run.Inc(obs.CPlanCompiles)
		}
		sat.compileInto(tester.Space())
		tester.CompileSat = func(e logic.Atom) *subsume.Compiled { return sat.compile(e, params) }
	}
	rng := ilp.NewRand(params.Seed)
	learn := func(uncovered []logic.Atom) (*logic.Clause, error) {
		b := bld
		if b == nil {
			// The no-stored-procedures configuration recompiles per clause;
			// the plan_compiles counter makes that §7.5.2 cost visible.
			b = newBuilder(prob, relstore.CompilePlan(schema, params.SubsetINDs))
			run.Inc(obs.CPlanCompiles)
		}
		return l.learnClause(prob, params, tester, rng, b, uncovered), nil
	}
	sp := run.StartSpan("learn",
		obs.F("learner", "castor"), obs.F("target", prob.Target.Name),
		obs.F("pos", len(prob.Pos)), obs.F("neg", len(prob.Neg)))
	def, err := ilp.Cover(prob, params, tester, learn)
	if def != nil {
		sp.Annotate(obs.F("clauses", def.Len()))
	}
	sp.End()
	return def, err
}

// scored is one beam entry with cached coverage, enabling the §7.5.4
// shortcut: a generalization of this clause covers at least these examples.
type scored struct {
	clause     *logic.Clause
	posCovered *coverage.Bitset // over the uncovered positives
	negCovered *coverage.Bitset // over all negatives
	score      float64

	// Provenance bookkeeping, populated only when the run records it:
	// provID is the node of this entry once its disposition is known,
	// provParent/provSeed carry the generating ARMG's context until then.
	provID     uint64
	provParent uint64
	provSeed   string
}

// maxSeedTries bounds how many seed examples one LearnClause call may
// try: a seed whose generalization degenerates (e.g. its entire bottom
// clause cascades away under ARMG) should not end the covering loop while
// other seeds can still produce acceptable clauses.
const maxSeedTries = 3

// learnClause is Algorithm 4, retrying with the next uncovered seed when a
// seed yields no acceptable clause.
func (l *Learner) learnClause(prob *ilp.Problem, params ilp.Params, tester *ilp.Tester, rng *ilp.Rand, bld *builder, uncovered []logic.Atom) *logic.Clause {
	tries := maxSeedTries
	if tries > len(uncovered) {
		tries = len(uncovered)
	}
	var fallback *logic.Clause
	for s := 0; s < tries; s++ {
		c := l.learnClauseFromSeed(prob, params, tester, rng, bld, uncovered, s)
		if c == nil {
			continue
		}
		p, n := tester.PosNeg(c, uncovered, prob.Neg, nil, nil)
		if ilp.AcceptClause(params, p, n) {
			return c
		}
		if fallback == nil {
			fallback = c
		}
	}
	return fallback
}

// learnClauseFromSeed runs the beam search of Algorithm 4 for the seed
// uncovered[try].
func (l *Learner) learnClauseFromSeed(prob *ilp.Problem, params ilp.Params, tester *ilp.Tester, rng *ilp.Rand, bld *builder, uncovered []logic.Atom, try int) *logic.Clause {
	run := params.Obs
	plan := bld.plan
	prov := run.Prov()
	seed := uncovered[try]
	var sb *obs.Span
	if run.Spanning() {
		sb = run.StartSpan("bottom_clause", obs.F("seed", seed.String()), obs.F("try", try))
	}
	var bottom *logic.Clause
	var bottomINDs []string
	if prov.Enabled() {
		// Same construction, with the chase reporting which INDs fired.
		fired := make(map[string]int64)
		bottom = ilp.Variablize(prob, bld.build(seed, params, fired))
		for name := range fired {
			bottomINDs = append(bottomINDs, name)
		}
		sort.Strings(bottomINDs)
		for _, name := range bottomINDs {
			prov.INDFired(name, fired[name])
		}
	} else {
		bottom = ilp.Variablize(prob, bld.build(seed, params, nil))
	}
	sb.Annotate(obs.F("literals", len(bottom.Body)), obs.F("vars", bottom.NumVars()))
	sb.End()
	run.Inc(obs.CBottomClauses)
	run.Add(obs.CBottomLiterals, int64(len(bottom.Body)))
	rootID := prov.Node(obs.ProvNode{
		Step: obs.StepSeedBottom, Seed: seed.String(),
		Clause: clauseString(prov, bottom), Literals: len(bottom.Body),
		Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept, INDs: bottomINDs,
	})
	if params.Minimize && len(bottom.Body) <= reduceCutoff {
		minimized := subsume.ReduceR(run, bottom)
		if prov.Enabled() && !minimized.Equal(bottom) {
			rootID = prov.Node(obs.ProvNode{
				Parents: []uint64{rootID}, Step: obs.StepMinimize, Seed: seed.String(),
				Clause: minimized.String(), Literals: len(minimized.Body),
				Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept,
			})
		}
		bottom = minimized
	}

	// Full evaluation of one clause; the tester gates the §7.5.4 knowns and
	// the memo cache on DisableCoverageCache centrally.
	evaluate := func(c *logic.Clause, parent *scored) *scored {
		var knownPos, knownNeg *coverage.Bitset
		if parent != nil {
			knownPos, knownNeg = parent.posCovered, parent.negCovered
		}
		pc := tester.CoveredSet(c, uncovered, knownPos)
		nc := tester.CoveredSet(c, prob.Neg, knownNeg)
		return &scored{clause: c, posCovered: pc, negCovered: nc, score: float64(pc.Count() - nc.Count())}
	}

	root := evaluate(bottom, nil)
	root.provID = rootID
	beam := []*scored{root}
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
		best := beam[0]
		for _, b := range beam {
			if b.score > best.score {
				best = b
			}
		}
		bestScore := best.score
		// Sample generalization targets among the positives the current
		// best clause does not cover yet (as Golem's Algorithm 2 does):
		// ARMG toward an already-covered example is the identity.
		pool := make([]logic.Atom, 0, len(uncovered))
		for i, e := range uncovered {
			if !best.posCovered.Get(i) {
				pool = append(pool, e)
			}
		}
		if len(pool) == 0 {
			sr.End()
			break
		}
		sample := ilp.SampleAtoms(rng, pool, k)
		// Generate this round's ARMGs serially (each mutates toward one
		// target example), then score the batch concurrently, with the
		// current best score as the early-termination bound: a candidate
		// whose negative cover already pins it at or below bestScore would
		// not enter the beam, so its scan is abandoned.
		var cands []coverage.Candidate
		var cmeta []candProv // aligned with cands; built only when recording
		for _, b := range beam {
			for _, e := range sample {
				g := ARMG(tester, plan, b.clause, e, params)
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
				if !g.IsSafe() {
					continue // §7.3.2: unsafe candidates are discarded
				}
				cands = append(cands, coverage.Candidate{Clause: g, KnownPos: b.posCovered, KnownNeg: b.negCovered})
				if prov.Enabled() {
					cmeta = append(cmeta, candProv{parent: b.provID, seed: e.String()})
				}
			}
		}
		var next []*scored
		for ci, s := range tester.ScoreBatch(cands, uncovered, prob.Neg, int(bestScore), width) {
			if s.Pruned {
				if prov.Enabled() {
					// Scoring was abandoned mid-scan: the counts are unknown.
					prov.Node(obs.ProvNode{
						Parents: []uint64{cmeta[ci].parent}, Step: obs.StepARMG, Seed: cmeta[ci].seed,
						Clause: s.Clause.String(), Literals: len(s.Clause.Body),
						Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispPrunedBudget,
					})
				}
				continue
			}
			if sc := float64(s.P - s.N); sc > bestScore {
				ns := &scored{clause: s.Clause, posCovered: s.Pos, negCovered: s.Neg, score: sc}
				if prov.Enabled() {
					ns.provParent, ns.provSeed = cmeta[ci].parent, cmeta[ci].seed
				}
				next = append(next, ns)
			} else if prov.Enabled() {
				prov.Node(obs.ProvNode{
					Parents: []uint64{cmeta[ci].parent}, Step: obs.StepARMG, Seed: cmeta[ci].seed,
					Clause: s.Clause.String(), Literals: len(s.Clause.Body),
					Pos: s.P, Neg: s.N, Score: float64(s.P - s.N), Disposition: obs.DispPrunedScore,
				})
			}
		}
		if len(next) == 0 {
			sr.End()
			break
		}
		// Keep the N best, ties in discovery order for determinism.
		sort.SliceStable(next, func(i, j int) bool { return next[i].score > next[j].score })
		if prov.Enabled() {
			// Dispositions are final only after the width trim.
			for i, b := range next {
				disp := obs.DispKept
				if i >= width {
					disp = obs.DispPrunedScore
				}
				b.provID = prov.Node(obs.ProvNode{
					Parents: []uint64{b.provParent}, Step: obs.StepARMG, Seed: b.provSeed,
					Clause: b.clause.String(), Literals: len(b.clause.Body),
					Pos: b.posCovered.Count(), Neg: b.negCovered.Count(),
					Score: b.score, Disposition: disp,
				})
			}
		}
		if len(next) > width {
			next = next[:width]
		}
		beam = next
		sr.Annotate(obs.F("candidates", len(cands)), obs.F("best", beam[0].score),
			obs.F("literals", len(beam[0].clause.Body)))
		sr.End()
	}
	best := beam[0]
	for _, b := range beam {
		if b.score > best.score {
			best = b
		}
	}
	sn := run.StartSpan("negative_reduction", obs.F("literals", len(best.clause.Body)))
	// Reduction only generalizes, so the winner's negative cover seeds the
	// known-covered shortcut for every re-test inside.
	reduced := NegativeReduce(tester, plan, best.clause, prob.Neg, best.negCovered)
	sn.Annotate(obs.F("kept", len(reduced.Body)))
	sn.End()
	finalID := best.provID
	if prov.Enabled() && !reduced.Equal(best.clause) {
		finalID = prov.Node(obs.ProvNode{
			Parents: []uint64{finalID}, Step: obs.StepNegativeReduction, Seed: seed.String(),
			Clause: reduced.String(), Literals: len(reduced.Body),
			Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept,
		})
	}
	if params.Minimize && len(reduced.Body) <= reduceCutoff {
		minimized := subsume.ReduceR(run, reduced)
		if prov.Enabled() && !minimized.Equal(reduced) {
			prov.Node(obs.ProvNode{
				Parents: []uint64{finalID}, Step: obs.StepMinimize, Seed: seed.String(),
				Clause: minimized.String(), Literals: len(minimized.Body),
				Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept,
			})
		}
		reduced = minimized
	}
	if len(reduced.Body) == 0 {
		return nil
	}
	return reduced
}

// candProv is the provenance context of one scoring-batch candidate: the
// beam entry it generalizes and the example it generalized toward.
type candProv struct {
	parent uint64
	seed   string
}

// clauseString renders c only when the recorder is live, so uninstrumented
// runs build no strings.
func clauseString(p *obs.Prov, c *logic.Clause) string {
	if !p.Enabled() {
		return ""
	}
	return c.String()
}
