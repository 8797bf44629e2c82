package loganh

import (
	"strconv"

	"repro/internal/logic"
	"repro/internal/relstore"
)

// Random Horn definition generator following §9.4 of the paper: each
// definition has a given number of clauses over one fresh target relation
// of random arity; each clause's body is built from randomly chosen schema
// relations populated with variables — each variable slot randomly reuses
// an existing variable or introduces a new one until the per-clause
// variable budget is reached — and every head variable appears in the
// body. Clauses contain no constants or function symbols. Unlike the
// paper's generator, recursion is disabled (the oracle evaluates
// definitions non-recursively) and the target arity is capped so the
// head-identification MQ pass stays tractable.

// GenSpec parameterizes definition generation.
type GenSpec struct {
	// NumClauses is the number of clauses in the definition.
	NumClauses int
	// NumVars is the exact number of distinct variables per clause.
	NumVars int
	// MaxArity caps the target relation's arity.
	MaxArity int
	// MaxBodyLen caps each clause's body length.
	MaxBodyLen int
}

// Rand is the minimal randomness source the generator needs.
type Rand interface {
	// Intn returns a value in [0, n).
	Intn(n int) int
}

// GenerateDefinition builds one random target relation and its definition
// over the schema.
func GenerateDefinition(rng Rand, schema *relstore.Schema, spec GenSpec) (*relstore.Relation, *logic.Definition) {
	maxArity := spec.MaxArity
	if maxArity <= 0 {
		maxArity = 3
	}
	if maxArity > spec.NumVars {
		maxArity = spec.NumVars
	}
	arity := 1 + rng.Intn(maxArity)
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = "t" + strconv.Itoa(i)
	}
	target := &relstore.Relation{Name: "target", Attrs: attrs}

	def := &logic.Definition{Target: target.Name}
	for k := 0; k < spec.NumClauses; k++ {
		def.Clauses = append(def.Clauses, generateClause(rng, schema, target, spec))
	}
	return target, def
}

// generateClause builds one safe clause with exactly spec.NumVars distinct
// variables (or as many as the body happened to need, if fewer slots were
// available).
func generateClause(rng Rand, schema *relstore.Schema, target *relstore.Relation, spec GenSpec) *logic.Clause {
	rels := schema.Relations()
	maxBody := spec.MaxBodyLen
	if maxBody <= 0 {
		maxBody = 3 * spec.NumVars
	}
	varName := func(i int) logic.Term { return logic.Var("X" + strconv.Itoa(i)) }
	used := 0 // variables introduced so far
	pick := func() logic.Term {
		// Introduce a new variable until the budget is reached, with a coin
		// flip to reuse earlier ones along the way.
		if used < spec.NumVars && (used == 0 || rng.Intn(2) == 0) {
			used++
			return varName(used - 1)
		}
		return varName(rng.Intn(used))
	}

	var body []logic.Atom
	for len(body) < maxBody {
		rel := rels[rng.Intn(len(rels))]
		args := make([]logic.Term, rel.Arity())
		for i := range args {
			args[i] = pick()
		}
		body = append(body, logic.NewAtom(rel.Name, args...))
		if used >= spec.NumVars && len(body) >= 2 {
			break
		}
	}
	// Head: variables drawn from the body's variables; safety is then
	// automatic.
	headArgs := make([]logic.Term, target.Arity())
	for i := range headArgs {
		headArgs[i] = varName(rng.Intn(used))
	}
	return &logic.Clause{Head: logic.NewAtom(target.Name, headArgs...), Body: body}
}
