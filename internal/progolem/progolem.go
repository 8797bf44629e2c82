// Package progolem implements ProGolem (Muggleton, Santos &
// Tamaddoni-Nezhad 2009), the bottom-up learner of §6.4: it saturates a
// seed example into an ordered bottom clause and generalizes it with the
// asymmetric relative minimal generalization (ARMG) operator — dropping
// *blocking atoms* until a second positive example is covered — inside a
// beam search, followed by negative reduction. The beam, ARMG and the
// negative reduction are ilp.Generalize, ilp.ARMG and ilp.NegativeReduce
// under their classic policy (no plan), which Castor shares with its plan:
// this package keeps only the classic bottom clause and the Generalize
// call.
//
// Theorem 6.6: ProGolem is not schema independent, because both the
// depth-bounded bottom clause (Lemma 6.3) and the literal-at-a-time ARMG
// (Example 6.5) depend on how relations are (de)composed.
package progolem

import (
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
	return ilp.Cover("progolem", prob, params, tester, learn)
}

// learnClause generalizes the seed's bottom clause by ilp.Generalize under
// the classic policy (no plan), which reduces the winner literal by
// literal.
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
	reduced, _ := ilp.Generalize(tester, nil, rng, seed, bottom, rootID, uncovered)
	if len(reduced.Body) == 0 {
		return nil
	}
	return reduced
}
