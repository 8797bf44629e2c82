package progol

import (
	"testing"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/testfix"
)

func evalDef(t *testing.T, prob *ilp.Problem, def *logic.Definition) (p, n int) {
	t.Helper()
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
	return p, n
}

func TestAlephProgolOriginal(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	def, err := NewAlephProgol().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	if def.IsEmpty() {
		t.Fatal("Aleph-Progol learned nothing")
	}
	p, n := evalDef(t, prob, def)
	if p < len(prob.Pos)*3/4 {
		t.Errorf("covers %d/%d positives:\n%v", p, len(prob.Pos), def)
	}
	if ilp.Precision(p, n) < params.MinPrec {
		t.Errorf("precision %.2f too low:\n%v", ilp.Precision(p, n), def)
	}
}

func TestAlephFOILOriginal(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	def, err := NewAlephFOIL().Learn(prob, ilp.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if def.IsEmpty() {
		t.Fatal("Aleph-FOIL learned nothing")
	}
	p, _ := evalDef(t, prob, def)
	if p < len(prob.Pos)/2 {
		t.Errorf("covers %d/%d positives:\n%v", p, len(prob.Pos), def)
	}
}

func TestAleph4NF(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.Problem4NF()
	def, err := NewAlephProgol().Learn(prob, ilp.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if def.IsEmpty() {
		t.Fatal("learned nothing over 4NF")
	}
	p, n := evalDef(t, prob, def)
	if p < len(prob.Pos)*3/4 || ilp.Precision(p, n) < 0.67 {
		t.Errorf("4NF: p=%d n=%d\n%v", p, n, def)
	}
}

func TestClauseLengthRestrictsHypothesisSpace(t *testing.T) {
	// Theorem 5.1's mechanism: with clauselength too small, no acceptable
	// clause exists and the learner returns an empty definition.
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.ClauseLength = 2 // head + 1 literal cannot separate pos from neg
	def, err := NewAlephProgol().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range def.Clauses {
		if c.Len() > 2 {
			t.Errorf("clause exceeds bound: %v", c)
		}
	}
	params.ClauseLength = 10
	def10, err := NewAlephProgol().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := evalDef(t, prob, def)
	p10, _ := evalDef(t, prob, def10)
	if p10 < p2 {
		t.Errorf("longer clauses should not hurt coverage: %d vs %d", p10, p2)
	}
}

func TestLearnedClausesAreHeadConnected(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	def, err := NewAlephProgol().Learn(prob, ilp.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range def.Clauses {
		for i, ok := range logic.HeadConnected(c) {
			if !ok {
				t.Errorf("literal %d of %v not head-connected", i, c)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	prob.Neg = append(prob.Neg, logic.NewAtom("advisedBy", logic.Var("X"), logic.Const("y")))
	if _, err := NewAlephFOIL().Learn(prob, ilp.Defaults()); err == nil {
		t.Error("invalid problem accepted")
	}
}

func TestNames(t *testing.T) {
	if NewAlephProgol().Name() != "Aleph-Progol" || NewAlephFOIL().Name() != "Aleph-FOIL" {
		t.Error("names changed")
	}
	if New("Custom", 4, 100).Name() != "Custom" {
		t.Error("custom name lost")
	}
}

func TestStateKeyDistinguishes(t *testing.T) {
	a := &state{picks: []int{1, 2}}
	b := &state{picks: []int{1, 3}}
	c := &state{picks: []int{1, 2}}
	if a.key() == b.key() {
		t.Error("different picks share a key")
	}
	if a.key() != c.key() {
		t.Error("equal picks differ in key")
	}
}
