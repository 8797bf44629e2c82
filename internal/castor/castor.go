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
//     Lemma 7.7), and negative reduction removes non-essential *instances
//     of inclusion classes* — whole groups of IND-linked literals — instead
//     of single literals (§7.2.2, Lemma 7.8), keeping clauses safe (§7.3):
//     both run in ilp.Generalize, the beam search ProGolem shares, under
//     the schema's plan;
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

// Learn implements ilp.Learner.
func (l *Learner) Learn(prob *ilp.Problem, params ilp.Params) (*logic.Definition, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	schema := prob.Instance.Schema()
	if params.PromoteINDs {
		schema = prob.Instance.PromoteEqualityINDs()
	}
	run := params.Obs
	newBuilder := func() *ilp.Builder {
		run.Inc(obs.CPlanCompiles)
		return ilp.NewBuilder(prob, relstore.CompilePlan(schema, params.SubsetINDs))
	}
	var bld *ilp.Builder
	if params.UseStoredProc {
		// Compiled once and reused across every bottom clause — the
		// stored-procedure configuration (§7.5.2).
		bld = newBuilder()
	}
	tester := ilp.NewTester(prob, params)
	if params.CoverageMode == ilp.CoverageSubsumption {
		// Coverage via θ-subsumption against *IND-chased* ground bottom
		// clauses (§7.5.3) — the classic saturation would reintroduce
		// schema dependence at the coverage level.
		sat := bld
		if sat == nil {
			sat = newBuilder()
		}
		tester.UseBuilder(sat)
	}
	rng := ilp.NewRand(params.Seed)
	learn := func(uncovered []logic.Atom) (*logic.Clause, error) {
		b := bld
		if b == nil {
			// The no-stored-procedures configuration recompiles per clause;
			// the plan_compiles counter makes that §7.5.2 cost visible.
			b = newBuilder()
		}
		return l.learnClause(prob, params, tester, rng, b, uncovered), nil
	}
	return ilp.Cover("castor", prob, params, tester, learn)
}

// maxSeedTries bounds how many seed examples one LearnClause call may
// try: a seed whose generalization degenerates (e.g. its entire bottom
// clause cascades away under ARMG) should not end the covering loop while
// other seeds can still produce acceptable clauses.
const maxSeedTries = 3

// learnClause is Algorithm 4, retrying with the next uncovered seed when a
// seed yields no acceptable clause.
func (l *Learner) learnClause(prob *ilp.Problem, params ilp.Params, tester *ilp.Tester, rng *ilp.Rand, bld *ilp.Builder, uncovered []logic.Atom) *logic.Clause {
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

// learnClauseFromSeed runs Algorithm 4 for the seed uncovered[try]: the
// seed's IND-chased bottom clause, minimized, goes through ilp.Generalize
// under the plan's policy, whose negative reduction removes inclusion
// instances, and the result is minimized again.
func (l *Learner) learnClauseFromSeed(prob *ilp.Problem, params ilp.Params, tester *ilp.Tester, rng *ilp.Rand, bld *ilp.Builder, uncovered []logic.Atom, try int) *logic.Clause {
	run := params.Obs
	plan := bld.Plan()
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
		bottom = ilp.Variablize(prob, bld.Build(seed, params, fired))
		for name := range fired {
			bottomINDs = append(bottomINDs, name)
		}
		sort.Strings(bottomINDs)
		for _, name := range bottomINDs {
			prov.INDFired(name, fired[name])
		}
	} else {
		bottom = ilp.Variablize(prob, bld.Build(seed, params, nil))
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
	bottom, rootID = minimize(params, seed, bottom, rootID)
	reduced, id := ilp.Generalize(tester, plan, rng, seed, bottom, rootID, uncovered)
	reduced, _ = minimize(params, seed, reduced, id)
	if len(reduced.Body) == 0 {
		return nil
	}
	return reduced
}

// minimize reduces c by θ-subsumption (§7.5.5) when Minimize is on and c
// is at most reduceCutoff literals long, recording a changed clause as a
// child of node parent. It returns the clause and its node.
func minimize(params ilp.Params, seed logic.Atom, c *logic.Clause, parent uint64) (*logic.Clause, uint64) {
	if !params.Minimize || len(c.Body) > reduceCutoff {
		return c, parent
	}
	prov := params.Obs.Prov()
	m := subsume.ReduceR(params.Obs, c)
	if !prov.Enabled() || m.Equal(c) {
		return m, parent
	}
	return m, prov.Node(obs.ProvNode{
		Parents: []uint64{parent}, Step: obs.StepMinimize, Seed: seed.String(),
		Clause: m.String(), Literals: len(m.Body),
		Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept,
	})
}

// clauseString renders c only when the recorder is live, so uninstrumented
// runs build no strings.
func clauseString(p *obs.Prov, c *logic.Clause) string {
	if !p.Enabled() {
		return ""
	}
	return c.String()
}
