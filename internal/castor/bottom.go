package castor

import (
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
)

// Castor's bottom-clause construction (§7.1) is ilp.Builder's policy for a
// plan: classic saturation extended with IND chasing, stopped by the
// distinct-variable budget MaxVars instead of the schema-dependent depth
// bound and recall cap.

// BottomClause builds the variablized bottom clause of example e.
func BottomClause(prob *ilp.Problem, plan *relstore.Plan, e logic.Atom, params ilp.Params) *logic.Clause {
	return ilp.Variablize(prob, GroundBottomClause(prob, plan, e, params))
}

// GroundBottomClause builds the ground bottom clause (saturation) of e with
// IND chasing.
func GroundBottomClause(prob *ilp.Problem, plan *relstore.Plan, e logic.Atom, params ilp.Params) *logic.Clause {
	return ilp.NewBuilder(prob, plan).Build(e, params, nil)
}
