package castor

import (
	"testing"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/testfix"
)

func plans(t testing.TB, prob *ilp.Problem) *relstore.Plan {
	t.Helper()
	return relstore.CompilePlan(prob.Instance.Schema(), false)
}

func TestBottomClauseChasesINDs(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	plan := plans(t, prob)
	params := ilp.Defaults()
	params.Depth = 1 // even at depth 1 the IND chase fires within the step
	e := logic.GroundAtom("advisedBy", "stud0", "prof0")
	g := GroundBottomClause(prob, plan, e, params)
	// When student(stud0) enters, inPhase(stud0,·) and
	// yearsInProgram(stud0,·) must enter with it.
	var hasStudent, hasPhase, hasYears bool
	for _, a := range g.Body {
		switch {
		case a.Pred == "student" && a.Args[0].Name == "stud0":
			hasStudent = true
		case a.Pred == "inPhase" && a.Args[0].Name == "stud0":
			hasPhase = true
		case a.Pred == "yearsInProgram" && a.Args[0].Name == "stud0":
			hasYears = true
		}
	}
	if !hasStudent || !hasPhase || !hasYears {
		t.Errorf("IND chase incomplete: student=%v phase=%v years=%v\n%v", hasStudent, hasPhase, hasYears, g)
	}
}

func TestBottomClauseMaxVarsStops(t *testing.T) {
	w := testfix.NewWorld(16)
	prob := w.ProblemOriginal()
	plan := plans(t, prob)
	small := ilp.Defaults()
	small.Depth = 0 // no depth bound: MaxVars is the only stop
	small.MaxVars = 4
	big := small
	big.MaxVars = 60
	e := logic.GroundAtom("advisedBy", "stud0", "prof0")
	bs := BottomClause(prob, plan, e, small)
	bb := BottomClause(prob, plan, e, big)
	if bs.NumVars() >= bb.NumVars() {
		t.Errorf("MaxVars bound had no effect: %d vs %d vars", bs.NumVars(), bb.NumVars())
	}
}

// TestBottomClauseEquivalentAcrossSchemas is Lemma 7.5 extensionally: the
// bottom clauses for the same example over Original and 4NF cover the same
// examples.
func TestBottomClauseEquivalentAcrossSchemas(t *testing.T) {
	w := testfix.NewWorld(8)
	po, p4 := w.ProblemOriginal(), w.Problem4NF()
	planO := relstore.CompilePlan(po.Instance.Schema(), false)
	plan4 := relstore.CompilePlan(p4.Instance.Schema(), false)
	params := ilp.Defaults()
	params.MaxRecall = 0 // no recall truncation for the equivalence check
	all := append(append([]logic.Atom(nil), w.Pos...), w.Neg...)
	for _, seed := range w.Pos[:2] {
		bO := BottomClause(po, planO, seed, params)
		b4 := BottomClause(p4, plan4, seed, params)
		for _, e := range all {
			cO := po.Instance.CoversExample(bO, e)
			c4 := p4.Instance.CoversExample(b4, e)
			if cO != c4 {
				t.Errorf("seed %v: bottom clauses disagree on %v (orig=%v, 4nf=%v)", seed, e, cO, c4)
			}
		}
	}
}

// TestARMGExample76 reproduces Example 7.6: removing the blocking
// inPhase(x, prelim) literal over the Original schema also removes
// student(x) and yearsInProgram(x, 3) via the INDs, matching the removal
// of student(x, prelim, 3) over 4NF.
func TestARMGExample76(t *testing.T) {
	// Original-schema world.
	so := testfix.SchemaOriginal()
	io := relstore.NewInstance(so)
	io.MustInsert("student", "abe")
	io.MustInsert("inPhase", "abe", "prelim")
	io.MustInsert("yearsInProgram", "abe", "3")
	io.MustInsert("student", "bea")
	io.MustInsert("inPhase", "bea", "post_generals")
	io.MustInsert("yearsInProgram", "bea", "3")
	probO := &ilp.Problem{
		Instance:   io,
		Target:     &relstore.Relation{Name: "hardWorking", Attrs: []string{"stud"}},
		Pos:        []logic.Atom{logic.GroundAtom("hardWorking", "abe"), logic.GroundAtom("hardWorking", "bea")},
		ValueAttrs: testfix.ValueAttrs(),
	}
	planO := relstore.CompilePlan(so, false)
	testerO := ilp.NewTester(probO, ilp.Defaults())
	cO := logic.MustParseClause("hardWorking(X) :- student(X), inPhase(X, prelim), yearsInProgram(X, 3).")
	e2 := logic.GroundAtom("hardWorking", "bea")
	gO := ilp.ARMG(testerO, planO, cO, e2)
	if gO == nil {
		t.Fatal("ARMG failed")
	}
	// All three literals must be gone: the generalization is the empty-body
	// clause (ProGolem would have kept student(X), Example 6.5).
	if len(gO.Body) != 0 {
		t.Errorf("IND-aware ARMG left literals behind: %v", gO)
	}

	// 4NF-schema world.
	s4 := testfix.Schema4NF()
	i4 := relstore.NewInstance(s4)
	i4.MustInsert("student", "abe", "prelim", "3")
	i4.MustInsert("student", "bea", "post_generals", "3")
	prob4 := &ilp.Problem{
		Instance:   i4,
		Target:     probO.Target,
		Pos:        probO.Pos,
		ValueAttrs: testfix.ValueAttrs(),
	}
	plan4 := relstore.CompilePlan(s4, false)
	tester4 := ilp.NewTester(prob4, ilp.Defaults())
	c4 := logic.MustParseClause("hardWorking(X) :- student(X, prelim, 3).")
	g4 := ilp.ARMG(tester4, plan4, c4, e2)
	if g4 == nil {
		t.Fatal("ARMG failed on 4NF")
	}
	if len(g4.Body) != 0 {
		t.Errorf("4NF ARMG left literals behind: %v", g4)
	}
}

func TestEnforceINDs(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	plan := plans(t, prob)
	// student(X) without its inPhase/yearsInProgram partners violates the
	// INDs with equality and must be dropped.
	c := logic.MustParseClause("t(X) :- student(X), publication(P,X).")
	g := ilp.EnforceINDs(c, plan)
	if len(g.Body) != 1 || g.Body[0].Pred != "publication" {
		t.Errorf("EnforceINDs = %v", g)
	}
	// A complete inclusion-class instance survives.
	c2 := logic.MustParseClause("t(X) :- student(X), inPhase(X, prelim), yearsInProgram(X, 2).")
	g2 := ilp.EnforceINDs(c2, plan)
	if len(g2.Body) != 3 {
		t.Errorf("complete instance was damaged: %v", g2)
	}
	// Mismatched join terms do not count as partners.
	c3 := logic.MustParseClause("t(X,Y) :- student(X), inPhase(Y, prelim), yearsInProgram(X, 2).")
	g3 := ilp.EnforceINDs(c3, plan)
	for _, a := range g3.Body {
		if a.Pred == "student" {
			t.Errorf("student(X) kept despite missing inPhase(X,·): %v", g3)
		}
	}
}

func TestLearnAdvisedByOriginal(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.Sample = 4
	def, err := New().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	if def.IsEmpty() {
		t.Fatal("Castor learned nothing")
	}
	p, n := evalDef(prob, def)
	if p < len(prob.Pos)*3/4 {
		t.Errorf("covers %d/%d positives:\n%v", p, len(prob.Pos), def)
	}
	if ilp.Precision(p, n) < params.MinPrec {
		t.Errorf("precision %.2f:\n%v", ilp.Precision(p, n), def)
	}
	if !logic.IsSafeDefinition(def) {
		t.Errorf("unsafe definition:\n%v", def)
	}
}

// TestSchemaIndependence is the headline property: Castor's learned
// definitions over Original and 4NF cover exactly the same examples.
func TestSchemaIndependence(t *testing.T) {
	w := testfix.NewWorld(12)
	po, p4 := w.ProblemOriginal(), w.Problem4NF()
	params := ilp.Defaults()
	params.Sample = 4
	defO, err := New().Learn(po, params)
	if err != nil {
		t.Fatal(err)
	}
	def4, err := New().Learn(p4, params)
	if err != nil {
		t.Fatal(err)
	}
	if defO.IsEmpty() || def4.IsEmpty() {
		t.Fatalf("empty definitions: orig=%v 4nf=%v", defO, def4)
	}
	all := append(append([]logic.Atom(nil), w.Pos...), w.Neg...)
	for _, e := range all {
		a := po.Instance.DefinitionCovers(defO, e)
		b := p4.Instance.DefinitionCovers(def4, e)
		if a != b {
			t.Errorf("coverage differs on %v: original=%v 4nf=%v\nORIG:\n%v\n4NF:\n%v", e, a, b, defO, def4)
		}
	}
}

func TestLearnWithoutStoredProc(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.UseStoredProc = false
	def, err := New().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	params.UseStoredProc = true
	def2, err := New().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	// Same results either way; stored procedures only change performance.
	if def.String() != def2.String() {
		t.Errorf("stored-proc mode changed results:\n%v\nvs\n%v", def, def2)
	}
}

func TestLearnParallelCoverageSameResult(t *testing.T) {
	w := testfix.NewWorld(12)
	prob := w.ProblemOriginal()
	seq := ilp.Defaults()
	seq.Sample = 4
	par := seq
	par.Parallelism = 8
	defSeq, err := New().Learn(prob, seq)
	if err != nil {
		t.Fatal(err)
	}
	defPar, err := New().Learn(prob, par)
	if err != nil {
		t.Fatal(err)
	}
	if defSeq.String() != defPar.String() {
		t.Errorf("parallelism changed results:\n%v\nvs\n%v", defSeq, defPar)
	}
}

func TestSubsetINDModeLearns(t *testing.T) {
	// Demote the equality INDs to subset INDs and run the §7.4 direct mode.
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	schema := testfix.SchemaOriginal()
	demoted := relstore.NewSchema()
	for _, r := range schema.Relations() {
		demoted.MustAddRelation(r.Name, r.Attrs...)
	}
	for _, ind := range schema.INDs() {
		demoted.MustAddIND(ind.Left.Rel, ind.Left.Attrs, ind.Right.Rel, ind.Right.Attrs, false)
	}
	inst := relstore.NewInstance(demoted)
	for _, r := range schema.Relations() {
		for _, tp := range w.Original.Table(r.Name).Tuples() {
			inst.MustInsert(r.Name, tp...)
		}
	}
	prob.Instance = inst
	params := ilp.Defaults()
	params.SubsetINDs = true
	def, err := New().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	if def.IsEmpty() {
		t.Fatal("subset-IND mode learned nothing")
	}
	// PromoteINDs preprocessing recovers full equality-IND behaviour.
	params2 := ilp.Defaults()
	params2.PromoteINDs = true
	def2, err := New().Learn(prob, params2)
	if err != nil {
		t.Fatal(err)
	}
	if def2.IsEmpty() {
		t.Fatal("promoted-IND mode learned nothing")
	}
}

func evalDef(prob *ilp.Problem, def *logic.Definition) (p, n int) {
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
