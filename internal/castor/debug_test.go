package castor

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
)

// imdbParams are the Table 11 settings.
func imdbParams() ilp.Params {
	p := ilp.Defaults()
	p.Sample = 1
	p.BeamWidth = 1
	p.CoverageMode = ilp.CoverageSubsumption
	return p
}

// TestIMDbLearnsExactDefinition checks the Table 11 headline on a small
// IMDb: Castor reaches precision = recall = 1 under the JMDB schema, and
// bottom clauses stay bounded (the row-consistent IND chase must not flood
// through shared entities).
func TestIMDbLearnsExactDefinition(t *testing.T) {
	cfg := datasets.DefaultIMDb()
	cfg.Movies, cfg.Directors, cfg.Actors = 80, 20, 40
	ds, err := datasets.GenerateIMDb(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prob, _ := ds.Problem("JMDB")
	plan := relstore.CompilePlan(prob.Instance.Schema(), false)
	params := imdbParams()

	e := ds.Pos[0]
	bc := BottomClause(prob, plan, e, params)
	if len(bc.Body) > 120 {
		t.Errorf("bottom clause flooded: %d literals", len(bc.Body))
	}
	tester := ilp.NewTester(prob, params)
	tester.UseBuilder(ilp.NewBuilder(prob, plan))
	if !tester.Covers(bc, e) {
		t.Fatal("bottom clause does not cover its own seed")
	}
	// ARMG toward another positive keeps a nonempty safe clause.
	g2 := ilp.ARMG(tester, plan, bc, ds.Pos[1])
	if g2 == nil || len(g2.Body) == 0 || !g2.IsSafe() {
		t.Fatalf("ARMG degenerate: %v", g2)
	}
	if !tester.Covers(g2, ds.Pos[1]) {
		t.Error("ARMG result does not cover e2")
	}

	def, err := New().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	p, n := evalDef(prob, def)
	if p < len(ds.Pos) || n > 0 {
		t.Errorf("expected exact coverage, got p=%d/%d n=%d\n%v", p, len(ds.Pos), n, def)
	}
}

// TestIMDbSchemaIndependence: Castor's coverage is identical across the
// three IMDb schemas.
func TestIMDbSchemaIndependence(t *testing.T) {
	cfg := datasets.DefaultIMDb()
	cfg.Movies, cfg.Directors, cfg.Actors = 60, 15, 30
	ds, err := datasets.GenerateIMDb(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first []bool
	for _, v := range ds.Variants {
		prob, _ := ds.Problem(v.Name)
		def, err := New().Learn(prob, imdbParams())
		if err != nil {
			t.Fatal(err)
		}
		var sig []bool
		for _, e := range append(append([]logic.Atom(nil), ds.Pos...), ds.Neg...) {
			sig = append(sig, prob.Instance.DefinitionCovers(def, e))
		}
		if first == nil {
			first = sig
			continue
		}
		for i := range sig {
			if sig[i] != first[i] {
				t.Errorf("%s: coverage differs from %s at example %d", v.Name, ds.Variants[0].Name, i)
				break
			}
		}
	}
}
