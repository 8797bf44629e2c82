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

// ARMGPrep is a beam entry prepared for ARMG jobs.
type ARMGPrep = armgPrep

// PrepareARMG prepares c for the ARMG jobs of a beam round, as armgs
// prepares a beam entry.
func PrepareARMG(t *Tester, plan *relstore.Plan, c *logic.Clause) *ARMGPrep {
	pe := new(armgPrep)
	pe.init(t, plan, c)
	return pe
}

// RunARMG runs one ARMG job of the prepared entry toward e.
func RunARMG(t *Tester, pe *ARMGPrep, e logic.Atom) *logic.Clause { return t.armg(pe, e) }

// EnforceINDsMask clears from keep the literals that EnforceINDs removes
// from the sub-clause of c keep leaves.
func EnforceINDsMask(c *logic.Clause, plan *relstore.Plan, keep []bool) {
	ip := newINDPartners(c.Body, plan)
	ip.enforce(keep)
}

// HeadMatches is ARMG's check that a head maps onto a ground example.
var HeadMatches = headMatches

// InstanceWalk returns the inclusion-instance walk Castor's negative
// reduction keeps for one plan, reused on every clause it is given.
func InstanceWalk(plan *relstore.Plan) func(*logic.Clause) [][]int {
	return newInstanceWalk(plan).instances
}
