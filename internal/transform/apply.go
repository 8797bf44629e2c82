package transform

import (
	"fmt"
	"slices"

	"repro/internal/relstore"
)

// Instance mapping: τ applied to database instances.

// Apply maps an instance of the pipeline's source schema to an instance of
// its target schema, step by step. Decompositions project; compositions
// natural-join. A composition over an instance that is not pairwise
// consistent would lose tuples and make the transformation non-invertible,
// so Apply returns an error in that case (use ApplyLossy for the §7.4
// general-composition semantics).
func (p *Pipeline) Apply(inst *relstore.Instance) (*relstore.Instance, error) {
	return p.apply(inst, true)
}

// ApplyLossy is Apply without the pairwise-consistency check: dangling
// tuples are silently dropped by the joins, matching the paper's general
// composition over instances outside J(S).
func (p *Pipeline) ApplyLossy(inst *relstore.Instance) (*relstore.Instance, error) {
	return p.apply(inst, false)
}

func (p *Pipeline) apply(inst *relstore.Instance, strict bool) (*relstore.Instance, error) {
	if inst.Schema() != p.from {
		// Allow structurally identical schemas: match by relation names.
		for _, r := range p.from.Relations() {
			if inst.Table(r.Name) == nil {
				return nil, fmt.Errorf("transform: instance lacks relation %q of the source schema", r.Name)
			}
		}
	}
	cur := inst
	for _, st := range p.steps {
		next, err := st.applyInstance(cur, strict)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// applyInstance maps one step's instance in the store's id space: the
// relations the step leaves alone are copied, and the step's own are
// projected or joined, all through one symbol translation into the output.
func (st *step) applyInstance(inst *relstore.Instance, strict bool) (*relstore.Instance, error) {
	tr := relstore.NewTranslation(inst, st.to)
	switch st.kind {
	case stepDecompose:
		if err := copyOthers(tr, st.from, st.source); err != nil {
			return nil, err
		}
		for _, part := range st.parts {
			if err := tr.Project(st.source, part.Name); err != nil {
				return nil, fmt.Errorf("transform: projecting %q: %w", part.Name, err)
			}
		}
	case stepCompose:
		if strict {
			ok, err := inst.PairwiseConsistent(st.sources...)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("transform: composing %v would lose tuples (instance not pairwise consistent); use ApplyLossy for general composition", st.sources)
			}
		}
		if err := copyOthers(tr, st.from, st.sources...); err != nil {
			return nil, err
		}
		if err := tr.Compose(st.target, st.sources...); err != nil {
			return nil, fmt.Errorf("transform: composing %q: %w", st.target, err)
		}
	}
	return tr.Output(), nil
}

// copyOthers copies every relation of schema but the step's own, in schema
// order.
func copyOthers(tr *relstore.Translation, schema *relstore.Schema, own ...string) error {
	for _, r := range schema.Relations() {
		if !slices.Contains(own, r.Name) {
			if err := tr.Copy(r.Name); err != nil {
				return err
			}
		}
	}
	return nil
}
