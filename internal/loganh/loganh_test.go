package loganh

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/subsume"
)

// miniSchema is a two-relation schema for oracle/learner tests.
func miniSchema() *relstore.Schema {
	s := relstore.NewSchema()
	s.MustAddRelation("p", "a", "b")
	s.MustAddRelation("q", "b")
	return s
}

func targetRel(arity int) *relstore.Relation {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = "t" + strconv.Itoa(i)
	}
	return &relstore.Relation{Name: "target", Attrs: attrs}
}

func TestInterpretationBasics(t *testing.T) {
	s := miniSchema()
	tr := targetRel(1)
	x := NewInterpretation(s, tr)
	x.Add(logic.GroundAtom("p", "o0", "o1"))
	x.Add(logic.GroundAtom("q", "o1"))
	x.Add(logic.GroundAtom("target", "o0"))
	if x.Len() != 3 {
		t.Fatalf("Len = %d", x.Len())
	}
	if !x.Has(logic.GroundAtom("q", "o1")) || x.Has(logic.GroundAtom("q", "o0")) {
		t.Error("Has wrong")
	}
	objs := x.Objects()
	if len(objs) != 2 || objs[0] != "o0" || objs[1] != "o1" {
		t.Errorf("Objects = %v", objs)
	}
	y := x.WithoutObject("o1")
	if y.Len() != 1 || !y.Has(logic.GroundAtom("target", "o0")) {
		t.Errorf("WithoutObject = %v", y.Atoms())
	}
	z := x.WithoutAtom(logic.GroundAtom("q", "o1"))
	if z.Len() != 2 || x.Len() != 3 {
		t.Error("WithoutAtom wrong or mutated receiver")
	}
	w := x.WithAtom(logic.GroundAtom("q", "o9"))
	if w.Len() != 4 || x.Len() != 3 {
		t.Error("WithAtom wrong or mutated receiver")
	}
}

func TestSatisfiesAndClose(t *testing.T) {
	s := miniSchema()
	tr := targetRel(1)
	def := logic.MustParseDefinition("target(X) :- p(X,Y), q(Y).")
	x := NewInterpretation(s, tr)
	x.Add(logic.GroundAtom("p", "o0", "o1"))
	x.Add(logic.GroundAtom("q", "o1"))
	if sat, err := x.Satisfies(def); err != nil || sat {
		t.Errorf("missing head should violate: sat=%v err=%v", sat, err)
	}
	if err := x.CloseUnder(def); err != nil {
		t.Fatal(err)
	}
	if !x.Has(logic.GroundAtom("target", "o0")) {
		t.Error("closure did not add the head")
	}
	if sat, _ := x.Satisfies(def); !sat {
		t.Error("closed interpretation must satisfy")
	}
}

func TestCanonicalInterpretation(t *testing.T) {
	s := miniSchema()
	tr := targetRel(1)
	c := logic.MustParseClause("target(X) :- p(X,Y), q(Y).")
	x := CanonicalInterpretation(s, tr, c)
	if x.Len() != 2 {
		t.Fatalf("atoms = %v", x.Atoms())
	}
	if !x.Has(logic.GroundAtom("p", "o0", "o1")) || !x.Has(logic.GroundAtom("q", "o1")) {
		t.Errorf("canonical = %v", x.Atoms())
	}
}

func TestOracleValidation(t *testing.T) {
	s := miniSchema()
	tr := targetRel(1)
	if _, err := NewOracle(s, tr, logic.MustParseDefinition("target(X) :- target(X).")); err == nil {
		t.Error("recursive target accepted")
	}
	if _, err := NewOracle(s, tr, logic.MustParseDefinition("target(X) :- q(Y).")); err == nil {
		t.Error("unsafe target accepted")
	}
	if _, err := NewOracle(s, tr, logic.MustParseDefinition("target(X) :- ghost(X).")); err == nil {
		t.Error("off-schema body accepted")
	}
}

func TestOracleMembership(t *testing.T) {
	s := miniSchema()
	tr := targetRel(1)
	o, err := NewOracle(s, tr, logic.MustParseDefinition("target(X) :- p(X,Y), q(Y)."))
	if err != nil {
		t.Fatal(err)
	}
	x := NewInterpretation(s, tr)
	x.Add(logic.GroundAtom("p", "o0", "o1"))
	x.Add(logic.GroundAtom("q", "o1"))
	if o.Membership(x) {
		t.Error("negative interpretation judged positive")
	}
	x.Add(logic.GroundAtom("target", "o0"))
	if !o.Membership(x) {
		t.Error("positive interpretation judged negative")
	}
	if o.MQs != 2 {
		t.Errorf("MQs = %d", o.MQs)
	}
}

func TestOracleEquivalence(t *testing.T) {
	s := miniSchema()
	tr := targetRel(1)
	target := logic.MustParseDefinition("target(X) :- p(X,Y), q(Y).")
	o, err := NewOracle(s, tr, target)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent hypothesis (renamed).
	if ce := o.Equivalence(logic.MustParseDefinition("target(A) :- p(A,B), q(B).")); ce != nil {
		t.Errorf("equivalent hypothesis got counterexample %v", ce.X.Atoms())
	}
	// Too-weak hypothesis: negative counterexample.
	ce := o.Equivalence(&logic.Definition{Target: "target"})
	if ce == nil || ce.Positive {
		t.Fatalf("expected negative counterexample, got %+v", ce)
	}
	if sat, _ := ce.X.Satisfies(target); sat {
		t.Error("negative counterexample satisfies the target")
	}
	// Too-strong hypothesis: positive counterexample.
	strong := logic.MustParseDefinition("target(X) :- p(X,Y).")
	ce2 := o.Equivalence(strong)
	if ce2 == nil || !ce2.Positive {
		t.Fatalf("expected positive counterexample, got %+v", ce2)
	}
	if sat, _ := ce2.X.Satisfies(target); !sat {
		t.Error("positive counterexample violates the target")
	}
	if sat, _ := ce2.X.Satisfies(strong); sat {
		t.Error("positive counterexample satisfies the hypothesis")
	}
	if o.EQs != 3 {
		t.Errorf("EQs = %d", o.EQs)
	}
}

func TestLearnerLearnsExactDefinition(t *testing.T) {
	s := miniSchema()
	tr := targetRel(1)
	target := logic.MustParseDefinition(`
		target(X) :- p(X,Y), q(Y).
		target(X) :- p(X,X).
	`)
	o, err := NewOracle(s, tr, target)
	if err != nil {
		t.Fatal(err)
	}
	h, stats, err := NewLearner().Learn(o, s, tr)
	if err != nil {
		t.Fatalf("learn failed: %v (hypothesis %v)", err, h)
	}
	if !stats.Exact {
		t.Fatal("not exact")
	}
	if !subsume.EquivalentDefinitions(h, target) {
		t.Errorf("hypothesis %v not equivalent to target %v", h, target)
	}
	if stats.EQs < 3 { // two counterexamples + final yes at minimum
		t.Errorf("EQs = %d", stats.EQs)
	}
	if stats.MQs == 0 {
		t.Error("no MQs asked")
	}
}

func TestLearnerBinaryTarget(t *testing.T) {
	s := miniSchema()
	tr := targetRel(2)
	target := logic.MustParseDefinition("target(X,Y) :- p(X,Y), q(Y).")
	o, err := NewOracle(s, tr, target)
	if err != nil {
		t.Fatal(err)
	}
	h, stats, err := NewLearner().Learn(o, s, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exact || !subsume.EquivalentDefinitions(h, target) {
		t.Errorf("hypothesis %v", h)
	}
}

// TestMQsGrowWithDecomposition reproduces Figure 3's mechanism on a
// minimal pair: the same definition over a composed schema r(a,b,c) and
// its decomposition r1(a,b), r2(a,c) costs more MQs over the decomposed
// schema because counterexamples hold more atoms.
func TestMQsGrowWithDecomposition(t *testing.T) {
	comp := relstore.NewSchema()
	comp.MustAddRelation("r", "a", "b", "c")
	dec := relstore.NewSchema()
	dec.MustAddRelation("r1", "a", "b")
	dec.MustAddRelation("r2", "a", "c")
	tr := targetRel(1)

	defComp := logic.MustParseDefinition("target(X) :- r(X,Y,Z), r(Y,X,W).")
	defDec := logic.MustParseDefinition("target(X) :- r1(X,Y), r2(X,Z), r1(Y,X), r2(Y,W).")

	oComp, err := NewOracle(comp, tr, defComp)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := NewLearner().Learn(oComp, comp, tr); err != nil {
		t.Fatal(err)
	} else if !stats.Exact {
		t.Fatal("composed: not exact")
	}
	oDec, err := NewOracle(dec, tr, defDec)
	if err != nil {
		t.Fatal(err)
	}
	_, statsDec, err := NewLearner().Learn(oDec, dec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !statsDec.Exact {
		t.Fatal("decomposed: not exact")
	}
	if statsDec.MQs <= oComp.MQs {
		t.Errorf("decomposed MQs (%d) should exceed composed MQs (%d)", statsDec.MQs, oComp.MQs)
	}
	if statsDec.EQs > oComp.EQs+2 {
		t.Errorf("EQs should stay comparable: %d vs %d", statsDec.EQs, oComp.EQs)
	}
}

func TestGenerateDefinition(t *testing.T) {
	s := miniSchema()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		spec := GenSpec{NumClauses: 1 + rng.Intn(3), NumVars: 4 + rng.Intn(5), MaxArity: 3}
		tr, def := GenerateDefinition(rng, s, spec)
		if def.Len() != spec.NumClauses {
			t.Fatalf("clauses = %d want %d", def.Len(), spec.NumClauses)
		}
		if tr.Arity() < 1 || tr.Arity() > 3 {
			t.Fatalf("arity = %d", tr.Arity())
		}
		for _, c := range def.Clauses {
			if !c.IsSafe() {
				t.Fatalf("unsafe clause %v", c)
			}
			if len(c.Constants()) != 0 {
				t.Fatalf("clause with constants %v", c)
			}
			if c.NumVars() > spec.NumVars {
				t.Fatalf("too many variables: %v", c)
			}
			for _, a := range c.Body {
				if _, ok := s.Relation(a.Pred); !ok {
					t.Fatalf("off-schema literal %v", a)
				}
			}
		}
		// Generated definitions must be learnable end to end.
		if i < 5 {
			o, err := NewOracle(s, tr, def)
			if err != nil {
				t.Fatal(err)
			}
			if _, stats, err := NewLearner().Learn(o, s, tr); err != nil || !stats.Exact {
				t.Fatalf("generated definition not learnable: %v (def %v)", err, def)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := miniSchema()
	spec := GenSpec{NumClauses: 2, NumVars: 5, MaxArity: 2}
	_, d1 := GenerateDefinition(rand.New(rand.NewSource(9)), s, spec)
	_, d2 := GenerateDefinition(rand.New(rand.NewSource(9)), s, spec)
	if d1.String() != d2.String() {
		t.Error("generation not deterministic")
	}
}
