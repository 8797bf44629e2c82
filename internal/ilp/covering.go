package ilp

import (
	"repro/internal/logic"
	"repro/internal/obs"
)

// The generic covering loop of Algorithm 1: learn one clause at a time,
// keep it if it meets the minimum condition, discard the positives it
// covers, repeat until no positives remain or no acceptable clause can be
// found.

// LearnClauseFunc learns one clause from the still-uncovered positive
// examples. Returning nil (and no error) signals that no clause could be
// built.
type LearnClauseFunc func(uncovered []logic.Atom) (*logic.Clause, error)

// Cover runs the covering loop of the named learner inside its learn
// span, which records the learner, the target, the example counts and, at
// the end, the clauses learned. The tester decides coverage; params
// supplies the minimum condition (MinPos, MinPrec) and MaxClauses.
func Cover(learner string, prob *Problem, params Params, tester *Tester, learn LearnClauseFunc) (*logic.Definition, error) {
	run := params.Obs
	sp := run.StartSpan("learn",
		obs.F("learner", learner), obs.F("target", prob.Target.Name),
		obs.F("pos", len(prob.Pos)), obs.F("neg", len(prob.Neg)))
	def, err := cover(prob, params, tester, learn)
	if def != nil {
		sp.Annotate(obs.F("clauses", def.Len()))
	}
	sp.End()
	return def, err
}

// cover is the loop of Cover.
func cover(prob *Problem, params Params, tester *Tester, learn LearnClauseFunc) (*logic.Definition, error) {
	run := params.Obs
	def := logic.NewDefinition(prob.Target.Name)
	uncovered := append([]logic.Atom(nil), prob.Pos...)
	for len(uncovered) > 0 {
		run.Heartbeat()
		if params.MaxClauses > 0 && def.Len() >= params.MaxClauses {
			break
		}
		sp := run.StartSpan("covering_iteration",
			obs.F("clauses", def.Len()), obs.F("uncovered", len(uncovered)))
		c, err := learn(uncovered)
		if err != nil {
			sp.End()
			return nil, err
		}
		if c == nil {
			sp.End()
			break
		}
		// These re-tests repeat the evaluation the learner just did on the
		// same clause and example sets, so they are memo-cache hits (§7.5.4).
		covered := tester.CoveredSet(c, uncovered, nil)
		p := covered.Count()
		n := tester.Count(c, prob.Neg, nil)
		if run.Spanning() {
			sp.Annotate(obs.F("clause", c.String()))
		}
		if p == 0 || !AcceptClause(params, p, n) {
			// The best learnable clause fails the minimum condition.
			run.Inc(obs.CClausesRejected)
			sp.Annotate(obs.F("accepted", false), obs.F("pos", p), obs.F("neg", n))
			sp.End()
			break
		}
		run.Inc(obs.CClausesAccepted)
		if prov := run.Prov(); prov.Enabled() {
			prov.Selected(c.String(), p, n)
		}
		sp.Annotate(obs.F("accepted", true), obs.F("pos", p), obs.F("neg", n),
			obs.F("literals", len(c.Body)))
		sp.End()
		def.Add(c)
		rest := uncovered[:0]
		for i, e := range uncovered {
			if !covered.Get(i) {
				rest = append(rest, e)
			}
		}
		uncovered = rest
	}
	return def, nil
}
