package golem

import (
	"testing"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/subsume"
	"repro/internal/testfix"
)

func TestLggTerms(t *testing.T) {
	lt := newLggTerms()
	a, b := logic.Const("x"), logic.Const("y")
	v1 := lt.lgg(a, b)
	if !v1.IsVar {
		t.Fatal("distinct constants must generalize to a variable")
	}
	// Same pair → same variable.
	if lt.lgg(a, b) != v1 {
		t.Error("pair mapping not stable")
	}
	// Different pair → different variable.
	if lt.lgg(b, a) == v1 {
		t.Error("ordered pairs must be distinct")
	}
	// Equal terms stay.
	if lt.lgg(a, a) != a {
		t.Error("equal terms must stay")
	}
}

func TestLggAtoms(t *testing.T) {
	lt := newLggTerms()
	a := logic.GroundAtom("p", "x", "k")
	b := logic.GroundAtom("p", "y", "k")
	g, ok := lggAtoms(a, b, lt)
	if !ok {
		t.Fatal("compatible atoms rejected")
	}
	if !g.Args[0].IsVar || g.Args[1] != logic.Const("k") {
		t.Errorf("lgg = %v", g)
	}
	if _, ok := lggAtoms(a, logic.GroundAtom("q", "x", "k"), lt); ok {
		t.Error("incompatible predicates accepted")
	}
}

// TestRLGGTextbook reproduces the classic example: lgg of two ground
// clauses generalizes the shared structure.
func TestRLGGTextbook(t *testing.T) {
	c1 := logic.MustParseClause("daughter(mary, ann) :- female(mary), parent(ann, mary).")
	c2 := logic.MustParseClause("daughter(eve, tom) :- female(eve), parent(tom, eve).")
	g := RLGG(c1, c2)
	if g == nil {
		t.Fatal("RLGG failed")
	}
	g = tidy(nil, g)
	want := logic.MustParseClause("daughter(X, Y) :- female(X), parent(Y, X).")
	if !subsume.EquivalentClauses(g, want) {
		t.Errorf("RLGG = %v, want equivalent of %v", g, want)
	}
	// The lgg must subsume both inputs.
	if !subsume.Subsumes(g, c1) || !subsume.Subsumes(g, c2) {
		t.Error("lgg does not subsume its inputs")
	}
}

func TestRLGGIncompatibleHeads(t *testing.T) {
	c1 := logic.MustParseClause("t(a).")
	c2 := logic.MustParseClause("u(b).")
	if RLGG(c1, c2) != nil {
		t.Error("different head predicates must fail")
	}
}

// TestRLGGIsLeastGeneral: the lgg subsumes both inputs, and any other
// clause subsuming both inputs subsumes the lgg.
func TestRLGGIsLeastGeneral(t *testing.T) {
	c1 := logic.MustParseClause("t(a) :- p(a, b), q(b).")
	c2 := logic.MustParseClause("t(c) :- p(c, d), q(d).")
	g := tidy(nil, RLGG(c1, c2))
	if !subsume.Subsumes(g, c1) || !subsume.Subsumes(g, c2) {
		t.Fatal("lgg must subsume inputs")
	}
	other := logic.MustParseClause("t(X) :- p(X, Y).")
	if !subsume.Subsumes(other, c1) || !subsume.Subsumes(other, c2) {
		t.Fatal("premise: other subsumes both")
	}
	if !subsume.Subsumes(other, g) {
		t.Error("a common generalization must subsume the lgg")
	}
}

func TestLGGDefinitionOfSet(t *testing.T) {
	sats := []*logic.Clause{
		logic.MustParseClause("t(a) :- p(a, b)."),
		logic.MustParseClause("t(c) :- p(c, d)."),
		logic.MustParseClause("t(e) :- p(e, f)."),
	}
	g := LGGDefinitionOfSet(sats)
	if g == nil {
		t.Fatal("fold failed")
	}
	g = tidy(nil, g)
	want := logic.MustParseClause("t(X) :- p(X, Y).")
	if !subsume.EquivalentClauses(g, want) {
		t.Errorf("fold = %v", g)
	}
	if LGGDefinitionOfSet(nil) != nil {
		t.Error("empty set should give nil")
	}
}

func TestGolemLearnsAdvisedBy(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.Depth = 2
	params.Sample = 3
	def, err := New().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	if def.IsEmpty() {
		t.Fatal("Golem learned nothing")
	}
	p, n := 0, 0
	for _, e := range prob.Pos {
		if prob.Instance.DefinitionCovers(def, e) {
			p++
		}
	}
	for _, e := range prob.Neg {
		if prob.Instance.DefinitionCovers(def, e) {
			n++
		}
	}
	if p < len(prob.Pos)/2 {
		t.Errorf("covers %d/%d positives:\n%v", p, len(prob.Pos), def)
	}
	if ilp.Precision(p, n) < params.MinPrec {
		t.Errorf("precision %.2f:\n%v", ilp.Precision(p, n), def)
	}
}

// TestRLGGSchemaIndependentOnPair demonstrates Theorem 6.4: rlggs of
// corresponding saturations over Original and 4NF cover the same examples.
func TestRLGGSchemaIndependentOnPair(t *testing.T) {
	w := testfix.NewWorld(8)
	po, p4 := w.ProblemOriginal(), w.Problem4NF()
	e1, e2 := w.Pos[0], w.Pos[1]
	params := ilp.Defaults()
	gO := tidy(nil, RLGG(
		ilp.Saturation(po, e1, params.Depth, 0),
		ilp.Saturation(po, e2, params.Depth, 0)))
	g4 := tidy(nil, RLGG(
		ilp.Saturation(p4, e1, params.Depth, 0),
		ilp.Saturation(p4, e2, params.Depth, 0)))
	if gO == nil || g4 == nil {
		t.Fatal("rlgg failed")
	}
	all := append(append([]logic.Atom(nil), w.Pos...), w.Neg...)
	for _, e := range all {
		a := po.Instance.CoversExample(gO, e)
		b := p4.Instance.CoversExample(g4, e)
		if a != b {
			t.Errorf("rlgg coverage differs on %v: original=%v 4nf=%v", e, a, b)
		}
	}
}

func TestDeterministicSampling(t *testing.T) {
	r1, r2 := ilp.NewRand(42), ilp.NewRand(42)
	pool := make([]logic.Atom, 10)
	for i := range pool {
		pool[i] = logic.GroundAtom("t", lggVarName(i))
	}
	a := ilp.SampleAtoms(r1, pool, 4)
	b := ilp.SampleAtoms(r2, pool, 4)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("sampling not deterministic")
		}
	}
	if got := ilp.SampleAtoms(ilp.NewRand(1), pool, 20); len(got) != 10 {
		t.Errorf("oversampling should return the pool: %d", len(got))
	}
}

func TestExclude(t *testing.T) {
	pool := []logic.Atom{logic.GroundAtom("t", "a"), logic.GroundAtom("t", "b")}
	got := exclude(pool, pool[:1])
	if len(got) != 1 || got[0].Args[0].Name != "b" {
		t.Errorf("exclude = %v", got)
	}
}
