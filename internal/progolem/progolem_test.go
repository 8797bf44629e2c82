package progolem

import (
	"testing"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/testfix"
)

func TestARMGDropsBlockingAtom(t *testing.T) {
	// Example 6.5's mechanism over a hand-built database.
	s := relstore.NewSchema()
	s.MustAddRelation("student", "stud")
	s.MustAddRelation("inPhase", "stud", "phase")
	s.MustAddRelation("yearsInProgram", "stud", "years")
	inst := relstore.NewInstance(s)
	inst.MustInsert("student", "abe")
	inst.MustInsert("inPhase", "abe", "prelim")
	inst.MustInsert("yearsInProgram", "abe", "3")
	inst.MustInsert("student", "bea")
	inst.MustInsert("inPhase", "bea", "post_generals")
	inst.MustInsert("yearsInProgram", "bea", "3")
	prob := &ilp.Problem{
		Instance:   inst,
		Target:     &relstore.Relation{Name: "hardWorking", Attrs: []string{"stud"}},
		Pos:        []logic.Atom{logic.GroundAtom("hardWorking", "abe"), logic.GroundAtom("hardWorking", "bea")},
		ValueAttrs: map[string]bool{"phase": true, "years": true},
	}
	tester := ilp.NewTester(prob, ilp.Defaults())
	c := logic.MustParseClause("hardWorking(X) :- student(X), inPhase(X, prelim), yearsInProgram(X, 3).")
	e2 := logic.GroundAtom("hardWorking", "bea")
	g := ilp.ARMG(tester, nil, c, e2)
	if g == nil {
		t.Fatal("ARMG failed")
	}
	// bea is not prelim: the inPhase literal is blocking and must be gone;
	// student and yearsInProgram survive.
	want := logic.MustParseClause("hardWorking(X) :- student(X), yearsInProgram(X, 3).")
	if !g.Equal(want) {
		t.Errorf("ARMG = %v want %v", g, want)
	}
	if !tester.Covers(g, e2) {
		t.Error("ARMG result must cover e2")
	}
	// Input not modified.
	if len(c.Body) != 3 {
		t.Error("ARMG modified its input")
	}
}

func TestARMGAlreadyCovering(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	tester := ilp.NewTester(prob, ilp.Defaults())
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")
	g := ilp.ARMG(tester, nil, c, w.Pos[0])
	if !g.Equal(c) {
		t.Errorf("covered example should leave the clause unchanged: %v", g)
	}
}

func TestARMGHeadMismatch(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	tester := ilp.NewTester(prob, ilp.Defaults())
	c := logic.MustParseClause("advisedBy(X,X) :- student(X).")
	if g := ilp.ARMG(tester, nil, c, logic.GroundAtom("advisedBy", "stud0", "prof0")); g != nil {
		t.Errorf("repeated head variable cannot match distinct constants: %v", g)
	}
}

func TestARMGPrunesDisconnected(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	tester := ilp.NewTester(prob, ilp.Defaults())
	// Removing publication(P,X) disconnects publication(P,Y)… the chain
	// collapses once the blocking atom goes.
	c := logic.MustParseClause("advisedBy(X,Y) :- ta(C,X,T), taughtBy(C,Y,T), publication(P,X).")
	// stud3 TAs nothing (courses only for j < n/2 = 4 → stud0..3 do TA; use
	// an example whose student has no TA row: stud5).
	e := logic.GroundAtom("advisedBy", "stud5", "prof1")
	g := ilp.ARMG(tester, nil, c, e)
	if g == nil {
		t.Fatal("ARMG failed")
	}
	if !tester.Covers(g, e) {
		t.Errorf("result %v does not cover %v", g, e)
	}
	for i, ok := range logic.HeadConnected(g) {
		if !ok {
			t.Errorf("literal %d of %v disconnected", i, g)
		}
	}
}

func TestBlockingAtomIndex(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	tester := ilp.NewTester(prob, ilp.Defaults())
	// Literal order matters: student(X) covers, inPhase(X,prelim) blocks
	// for a post_generals student.
	c := logic.MustParseClause("advisedBy(X,Y) :- student(X), inPhase(X,prelim), professor(Y).")
	e := logic.GroundAtom("advisedBy", "stud1", "prof0") // stud1 is post_generals
	if i := ilp.BlockingAtom(tester, c, e); i != 1 {
		t.Errorf("BlockingAtom = %d want 1", i)
	}
	c2 := logic.MustParseClause("advisedBy(X,Y) :- inPhase(X,prelim), student(X).")
	if i := ilp.BlockingAtom(tester, c2, e); i != 0 {
		t.Errorf("BlockingAtom = %d want 0", i)
	}
}

func TestLearnAdvisedBy(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.Sample = 4
	params.BeamWidth = 2
	def, err := New().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	if def.IsEmpty() {
		t.Fatal("ProGolem learned nothing")
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
	if p < len(prob.Pos)*3/4 {
		t.Errorf("covers %d/%d positives:\n%v", p, len(prob.Pos), def)
	}
	if ilp.Precision(p, n) < params.MinPrec {
		t.Errorf("precision %.2f:\n%v", ilp.Precision(p, n), def)
	}
}

func TestLearn4NF(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.Problem4NF()
	params := ilp.Defaults()
	params.Sample = 4
	def, err := New().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	if def.IsEmpty() {
		t.Fatal("ProGolem learned nothing over 4NF")
	}
}

func TestName(t *testing.T) {
	if New().Name() != "ProGolem" {
		t.Error("name changed")
	}
}
