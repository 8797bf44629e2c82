// Package loganh implements a query-based learner in the style of the A2
// algorithm (Khardon 1999) as implemented by the LogAn-H system (§8 and
// §9.4 of the paper): the learner asks *equivalence queries* (EQ — "is my
// hypothesis the target definition?") and *membership queries* (MQ — "does
// this interpretation satisfy the target?") of an automatic oracle that
// knows the target Horn definition, and counts both.
//
// Examples are interpretations: finite sets of ground atoms over the
// schema's relations plus the target relation. A negative counterexample
// (an interpretation violating the target) is minimized with MQs — first
// dropping objects, then atoms — and its missing target atoms are
// identified with leave-one-out MQs; the variablized result becomes a
// hypothesis clause. Positive counterexamples prune wrong clauses.
//
// The query-count behaviour of Theorem 8.1 and Figure 3 follows directly:
// the number of EQs tracks the number of target clauses (schema
// independent), while the number of MQs tracks interpretation size — which
// grows under decomposition (more atoms carry the same information) and
// with the number of variables.
//
// Deviations from the full A2, documented for fidelity: the pairing
// operation between stored counterexamples is omitted (our targets are
// single-relation definitions whose canonical counterexamples already
// variablize back to exact clauses), and target definitions are restricted
// to non-recursive safe clauses without constants, as in the paper's §9.4
// generator.
package loganh

import (
	"sort"
	"strconv"

	"repro/internal/logic"
	"repro/internal/relstore"
)

// Interpretation is a finite set of ground atoms over the schema relations
// and the target relation.
type Interpretation struct {
	schema    *relstore.Schema
	targetRel *relstore.Relation
	atoms     map[string]logic.Atom
}

// NewInterpretation returns an empty interpretation.
func NewInterpretation(schema *relstore.Schema, target *relstore.Relation) *Interpretation {
	return &Interpretation{schema: schema, targetRel: target, atoms: make(map[string]logic.Atom)}
}

// Add inserts a ground atom.
func (x *Interpretation) Add(a logic.Atom) { x.atoms[a.Key()] = a }

// Has reports whether the ground atom is present.
func (x *Interpretation) Has(a logic.Atom) bool {
	_, ok := x.atoms[a.Key()]
	return ok
}

// Len returns the number of atoms.
func (x *Interpretation) Len() int { return len(x.atoms) }

// Atoms returns the atoms sorted by key (deterministic).
func (x *Interpretation) Atoms() []logic.Atom {
	keys := make([]string, 0, len(x.atoms))
	for k := range x.atoms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]logic.Atom, len(keys))
	for i, k := range keys {
		out[i] = x.atoms[k]
	}
	return out
}

// Objects returns the distinct constants, sorted.
func (x *Interpretation) Objects() []string {
	seen := make(map[string]bool)
	for _, a := range x.atoms {
		for _, t := range a.Args {
			seen[t.Name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies the interpretation.
func (x *Interpretation) Clone() *Interpretation {
	out := NewInterpretation(x.schema, x.targetRel)
	for k, a := range x.atoms {
		out.atoms[k] = a
	}
	return out
}

// WithoutObject returns a copy with every atom mentioning the object
// removed.
func (x *Interpretation) WithoutObject(o string) *Interpretation {
	out := NewInterpretation(x.schema, x.targetRel)
	for k, a := range x.atoms {
		drop := false
		for _, t := range a.Args {
			if t.Name == o {
				drop = true
				break
			}
		}
		if !drop {
			out.atoms[k] = a
		}
	}
	return out
}

// WithoutAtom returns a copy with the atom removed.
func (x *Interpretation) WithoutAtom(a logic.Atom) *Interpretation {
	out := x.Clone()
	delete(out.atoms, a.Key())
	return out
}

// WithAtom returns a copy with the atom added.
func (x *Interpretation) WithAtom(a logic.Atom) *Interpretation {
	out := x.Clone()
	out.Add(a)
	return out
}

// instance materializes the non-target atoms as a store instance so Horn
// clauses can be evaluated over the interpretation. Atoms whose predicate
// is not a schema relation (or whose arity mismatches) are ignored.
func (x *Interpretation) instance() *relstore.Instance {
	inst := relstore.NewInstance(x.schema)
	for _, a := range x.Atoms() {
		if a.Pred == x.targetRel.Name {
			continue
		}
		rel, ok := x.schema.Relation(a.Pred)
		if !ok || rel.Arity() != a.Arity() {
			continue
		}
		vals := make([]string, a.Arity())
		for i, t := range a.Args {
			vals[i] = t.Name
		}
		inst.MustInsert(a.Pred, vals...)
	}
	return inst
}

// Satisfies reports whether the interpretation is a model of the Horn
// definition: every grounding of every clause whose body holds has its
// head atom present.
func (x *Interpretation) Satisfies(def *logic.Definition) (bool, error) {
	inst := x.instance()
	for _, c := range def.Clauses {
		heads, err := inst.EvalClause(c)
		if err != nil {
			return false, err
		}
		for _, h := range heads {
			if !x.Has(h) {
				return false, nil
			}
		}
	}
	return true, nil
}

// CloseUnder adds every head atom the definition derives from the
// interpretation (one pass suffices for non-recursive definitions).
func (x *Interpretation) CloseUnder(def *logic.Definition) error {
	inst := x.instance()
	for _, c := range def.Clauses {
		heads, err := inst.EvalClause(c)
		if err != nil {
			return err
		}
		for _, h := range heads {
			x.Add(h)
		}
	}
	return nil
}

// CanonicalInterpretation grounds the clause's body with one object per
// variable (o0, o1, …) and returns the interpretation of those atoms plus
// the grounded head atom's absence — i.e., the canonical violation witness
// of the clause.
func CanonicalInterpretation(schema *relstore.Schema, target *relstore.Relation, c *logic.Clause) *Interpretation {
	s := logic.NewSubstitution()
	for i, v := range c.Vars() {
		s.Bind(v, logic.Const("o"+strconv.Itoa(i)))
	}
	x := NewInterpretation(schema, target)
	for _, a := range c.Body {
		x.Add(a.Apply(s))
	}
	return x
}
