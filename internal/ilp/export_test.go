package ilp

import (
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/subsume"
)

// TesterSpace returns the id space a subsumption-mode tester compiles
// saturations into; nil in direct mode.
func TesterSpace(t *Tester) *subsume.Space { return t.space }

// CompileSaturation builds e's saturation and compiles it into the space
// b was bound to by Tester.UseBuilder, as a tester does on a miss.
func CompileSaturation(b *Builder, e logic.Atom, params Params) *subsume.Compiled {
	return b.compile(e, params)
}

// CompileFromIDs runs the id path alone: the construction, then
// compileIDs, with no fallback to the clause of names.
func CompileFromIDs(b *Builder, e logic.Atom, params Params) *subsume.Compiled {
	sc := b.getScratch()
	defer b.scratch.Put(sc)
	b.saturate(sc, e, params, nil)
	return b.compileIDs(sc, e)
}

// ARMGs generates a beam round's ARMGs of the beam's clauses toward the
// sample on the tester's rounds, as Generalize does.
func ARMGs(t *Tester, plan *relstore.Plan, beam []*logic.Clause, sample []logic.Atom) []*logic.Clause {
	entries := make([]*entry, len(beam))
	for i, c := range beam {
		entries[i] = &entry{clause: c}
	}
	return armgs(t, plan, entries, sample)
}
