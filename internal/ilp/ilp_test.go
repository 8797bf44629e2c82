package ilp_test

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/subsume"
	"repro/internal/testfix"
)

func TestProblemValidate(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	if err := prob.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := *prob
	bad.Pos = append([]logic.Atom{logic.GroundAtom("wrong", "a", "b")}, prob.Pos...)
	if (&bad).Validate() == nil {
		t.Error("wrong predicate accepted")
	}
	bad = *prob
	bad.Pos = append([]logic.Atom{logic.GroundAtom("advisedBy", "a")}, prob.Pos...)
	if (&bad).Validate() == nil {
		t.Error("wrong arity accepted")
	}
	bad = *prob
	bad.Neg = append([]logic.Atom{logic.NewAtom("advisedBy", logic.Var("X"), logic.Const("b"))}, prob.Neg...)
	if (&bad).Validate() == nil {
		t.Error("non-ground example accepted")
	}
	bad = *prob
	bad.Instance = nil
	if (&bad).Validate() == nil {
		t.Error("nil instance accepted")
	}
}

func TestSaturationBasics(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	e := logic.GroundAtom("advisedBy", "stud0", "prof0")
	sat := ilp.Saturation(prob, e, 2, 0)
	if !sat.IsGround() {
		t.Fatal("saturation must be ground")
	}
	if !sat.Head.Equal(e) {
		t.Errorf("head = %v", sat.Head)
	}
	// Depth 1 from {stud0, prof0} must include their direct tuples.
	wantPreds := map[string]bool{}
	for _, a := range sat.Body {
		wantPreds[a.Pred] = true
	}
	for _, p := range []string{"student", "inPhase", "yearsInProgram", "professor", "hasPosition", "publication"} {
		if !wantPreds[p] {
			t.Errorf("saturation missing %s literals: %v", p, sat)
		}
	}
	// No duplicate literals.
	seen := map[string]bool{}
	for _, a := range sat.Body {
		k := a.Key()
		if seen[k] {
			t.Errorf("duplicate literal %v", a)
		}
		seen[k] = true
	}
}

func TestSaturationDepthGrowth(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	e := logic.GroundAtom("advisedBy", "stud0", "prof0")
	d1 := ilp.Saturation(prob, e, 1, 0)
	d2 := ilp.Saturation(prob, e, 2, 0)
	if len(d2.Body) <= len(d1.Body) {
		t.Errorf("depth 2 (%d literals) should exceed depth 1 (%d)", len(d2.Body), len(d1.Body))
	}
	d0 := ilp.Saturation(prob, e, 0, 0)
	if len(d0.Body) != 0 {
		t.Errorf("depth 0 should have empty body: %v", d0)
	}
}

func TestSaturationMaxRecall(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	e := logic.GroundAtom("advisedBy", "stud0", "prof0")
	unbounded := ilp.Saturation(prob, e, 2, 0)
	bounded := ilp.Saturation(prob, e, 2, 2)
	if len(bounded.Body) >= len(unbounded.Body) {
		t.Errorf("recall bound had no effect: %d vs %d", len(bounded.Body), len(unbounded.Body))
	}
	// Per-relation per-iteration bound: count publication literals; with
	// recall 2 at depth 1 at most 2 could be added in iteration one, plus 2
	// more in iteration two.
	count := 0
	for _, a := range bounded.Body {
		if a.Pred == "publication" {
			count++
		}
	}
	if count > 4 {
		t.Errorf("publication literals = %d exceeds recall budget", count)
	}
}

func TestVariablizeKeepsValueConstants(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	e := logic.GroundAtom("advisedBy", "stud0", "prof0")
	bc := ilp.BottomClause(prob, e, 2, 0)
	if bc.IsGround() {
		t.Fatal("bottom clause should contain variables")
	}
	// Head is fully variablized.
	for _, a := range bc.Head.Args {
		if !a.IsVar {
			t.Errorf("head arg not variablized: %v", bc.Head)
		}
	}
	for _, lit := range bc.Body {
		switch lit.Pred {
		case "inPhase":
			if lit.Args[1].IsVar {
				t.Errorf("phase value variablized: %v", lit)
			}
			if !lit.Args[0].IsVar {
				t.Errorf("stud entity not variablized: %v", lit)
			}
		case "hasPosition":
			if lit.Args[1].IsVar {
				t.Errorf("position value variablized: %v", lit)
			}
		}
	}
	// Same constant ⇒ same variable: stud0 appears in head and body.
	headStud := bc.Head.Args[0]
	for _, lit := range bc.Body {
		if lit.Pred == "student" && lit.Args[0] != headStud {
			t.Errorf("stud0 mapped inconsistently: %v vs %v", lit.Args[0], headStud)
		}
	}
}

func TestSaturationDoesNotChaseValues(t *testing.T) {
	// prelim is shared by half the students; chasing it would pull in
	// every such student. Value attrs must prevent that.
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	e := logic.GroundAtom("advisedBy", "stud0", "prof0")
	sat := ilp.Saturation(prob, e, 2, 0)
	for _, lit := range sat.Body {
		if lit.Pred == "inPhase" && lit.Args[0].Name != "stud0" {
			t.Errorf("value chase leaked: %v", lit)
		}
	}
}

func TestTesterModesAgree(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	clauses := []*logic.Clause{
		logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y), hasPosition(Y,faculty)."),
		logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y)."),
		logic.MustParseClause("advisedBy(X,Y) :- student(X), professor(Y)."),
	}
	dbT := ilp.NewTester(prob, params)
	params2 := params
	params2.CoverageMode = ilp.CoverageSubsumption
	subT := ilp.NewTester(prob, params2)
	all := append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...)
	for _, c := range clauses {
		for _, e := range all {
			if dbT.Covers(c, e) != subT.Covers(c, e) {
				t.Errorf("modes disagree on %v / %v: db=%v", c, e, dbT.Covers(c, e))
			}
		}
	}
}

func TestTesterParallelMatchesSequential(t *testing.T) {
	w := testfix.NewWorld(16)
	prob := w.ProblemOriginal()
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y), hasPosition(Y,faculty).")
	seq := ilp.NewTester(prob, ilp.Defaults())
	par := func() *ilp.Tester {
		p := ilp.Defaults()
		p.Parallelism = 8
		return ilp.NewTester(prob, p)
	}()
	all := append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...)
	a := seq.CoveredSet(c, all, nil)
	b := par.CoveredSet(c, all, nil)
	if a.Len() != len(all) || !a.Equal(b) {
		t.Fatalf("parallel mismatch: %v vs %v", a.Bools(), b.Bools())
	}
}

func TestTesterKnownShortcut(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	tester := ilp.NewTester(prob, ilp.Defaults())
	// A clause covering nothing, but all marked known ⇒ all reported covered.
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(Z,X), courseLevel(Z,900).")
	known := coverage.New(len(prob.Pos))
	for i := range prob.Pos {
		known.Set(i)
	}
	got := tester.CoveredSet(c, prob.Pos, known)
	for i := range prob.Pos {
		if !got.Get(i) {
			t.Fatalf("known example %d re-tested and reported uncovered", i)
		}
	}
}

func TestPosNegAndAccept(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	tester := ilp.NewTester(prob, ilp.Defaults())
	exact := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y), hasPosition(Y,faculty).")
	p, n := tester.PosNeg(exact, prob.Pos, prob.Neg, nil, nil)
	if p != len(prob.Pos) {
		t.Errorf("exact clause covers %d/%d positives", p, len(prob.Pos))
	}
	if n != 0 {
		t.Errorf("exact clause covers %d negatives", n)
	}
	if !ilp.AcceptClause(ilp.Defaults(), p, n) {
		t.Error("exact clause rejected")
	}
	if ilp.AcceptClause(ilp.Defaults(), 1, 0) {
		t.Error("MinPos violated but accepted")
	}
	if ilp.AcceptClause(ilp.Defaults(), 4, 4) {
		t.Error("precision 0.5 accepted at MinPrec 0.67")
	}
	if ilp.Precision(0, 0) != 0 {
		t.Error("Precision(0,0) should be 0")
	}
}

func TestCoveringLoop(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	tester := ilp.NewTester(prob, params)
	// A LearnClause that returns the exact clause once, then nil.
	calls := 0
	learn := func(uncovered []logic.Atom) (*logic.Clause, error) {
		calls++
		if calls == 1 {
			return logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y), hasPosition(Y,faculty)."), nil
		}
		return nil, nil
	}
	def, err := ilp.Cover("test", prob, params, tester, learn)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() != 1 {
		t.Fatalf("definition = %v", def)
	}
	if calls != 1 {
		t.Errorf("learn called %d times; covering should stop when positives are exhausted", calls)
	}
	want := logic.MustParseDefinition("advisedBy(X,Y) :- publication(P,X), publication(P,Y), hasPosition(Y,faculty).")
	if !subsume.EquivalentDefinitions(def, want) {
		t.Errorf("definition = %v", def)
	}
}

func TestCoveringLoopRejectsBadClause(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	tester := ilp.NewTester(prob, params)
	// Over-general clause covering everything: precision too low.
	learn := func(uncovered []logic.Atom) (*logic.Clause, error) {
		return logic.MustParseClause("advisedBy(X,Y) :- student(X), professor(Y)."), nil
	}
	def, err := ilp.Cover("test", prob, params, tester, learn)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() != 0 {
		t.Errorf("low-precision clause accepted: %v", def)
	}
}

func TestCoveringLoopMaxClauses(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.MaxClauses = 1
	params.MinPos = 1
	tester := ilp.NewTester(prob, params)
	// Each call returns a clause covering one specific positive example via
	// its publication title — so the loop would need many clauses.
	learn := func(uncovered []logic.Atom) (*logic.Clause, error) {
		e := uncovered[0]
		// advisedBy(X,Y) :- publication(t, X), publication(t, Y) with the
		// student's own title constant.
		title := "title" + e.Args[0].Name[len("stud"):]
		return logic.NewClause(
			logic.NewAtom("advisedBy", logic.Var("X"), logic.Var("Y")),
			logic.NewAtom("publication", logic.Const(title), logic.Var("X")),
			logic.NewAtom("publication", logic.Const(title), logic.Var("Y")),
		), nil
	}
	def, err := ilp.Cover("test", prob, params, tester, learn)
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() != 1 {
		t.Errorf("MaxClauses not enforced: %d clauses", def.Len())
	}
}

func TestDefaultsSane(t *testing.T) {
	d := ilp.Defaults()
	if d.MinPrec != 0.67 || d.MinPos != 2 || d.Depth != 3 || !d.Minimize || !d.UseStoredProc {
		t.Errorf("Defaults changed unexpectedly: %+v", d)
	}
}
