// Package ilp holds the learning infrastructure shared by every relational
// learner in this repository: the ILP problem definition (Definition 3.1 of
// the paper), learner parameters, bottom-clause construction (the classic
// one of §6.1 and Castor's of §7.1), coverage testing (by direct database
// evaluation or by θ-subsumption against ground bottom clauses, §7.5.3),
// and the generic covering loop of Algorithm 1.
package ilp

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/relstore"
)

// Problem is one ILP task: background knowledge I, a target relation T, and
// labeled examples E⁺/E⁻ (ground atoms of T).
type Problem struct {
	// Instance is the background knowledge (the database).
	Instance *relstore.Instance
	// Target is the target relation symbol. It is not part of the schema;
	// its attribute names tie head argument positions to schema domains.
	Target *relstore.Relation
	// Pos and Neg are the positive and negative training examples.
	Pos, Neg []logic.Atom
	// ValueAttrs lists attribute domains whose constants are values (phase,
	// level, position, …): bottom-clause construction keeps them as
	// constants and does not chase joins through them. This plays the role
	// of '#'-constant mode declarations in classic ILP systems.
	ValueAttrs map[string]bool
}

// Validate checks that the problem is well-formed: examples are ground
// atoms of the target with the right arity.
func (p *Problem) Validate() error {
	if p.Instance == nil || p.Target == nil {
		return fmt.Errorf("ilp: problem missing instance or target")
	}
	check := func(kind string, es []logic.Atom) error {
		for _, e := range es {
			if e.Pred != p.Target.Name {
				return fmt.Errorf("ilp: %s example %v is not a %s atom", kind, e, p.Target.Name)
			}
			if e.Arity() != p.Target.Arity() {
				return fmt.Errorf("ilp: %s example %v has arity %d, want %d", kind, e, e.Arity(), p.Target.Arity())
			}
			if !e.IsGround() {
				return fmt.Errorf("ilp: %s example %v is not ground", kind, e)
			}
		}
		return nil
	}
	if err := check("positive", p.Pos); err != nil {
		return err
	}
	return check("negative", p.Neg)
}

// IsValueAttr reports whether the attribute's domain is a value domain.
func (p *Problem) IsValueAttr(schema *relstore.Schema, attr string) bool {
	if p.ValueAttrs == nil {
		return false
	}
	return p.ValueAttrs[schema.Domain(attr)]
}

// Learner is a relational learning algorithm: given a problem and
// parameters it induces a Horn definition for the target.
type Learner interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Learn induces a definition of the problem's target relation.
	Learn(p *Problem, params Params) (*logic.Definition, error)
}
