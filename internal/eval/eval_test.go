package eval

import (
	"reflect"
	"testing"

	"repro/internal/castor"
	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
)

func fixture(t *testing.T) (*relstore.Instance, *logic.Definition, []logic.Atom, []logic.Atom) {
	t.Helper()
	s := relstore.NewSchema()
	s.MustAddRelation("p", "a")
	inst := relstore.NewInstance(s)
	inst.MustInsert("p", "x1")
	inst.MustInsert("p", "x2")
	def := logic.MustParseDefinition("t(X) :- p(X).")
	pos := []logic.Atom{logic.GroundAtom("t", "x1"), logic.GroundAtom("t", "x3")}
	neg := []logic.Atom{logic.GroundAtom("t", "x2"), logic.GroundAtom("t", "x4")}
	return inst, def, pos, neg
}

func TestEvaluate(t *testing.T) {
	inst, def, pos, neg := fixture(t)
	m := Evaluate(inst, def, pos, neg)
	// covers x1 (tp), misses x3 (fn), covers x2 (fp), misses x4.
	if m.TP != 1 || m.FN != 1 || m.FP != 1 {
		t.Fatalf("counts = %+v", m)
	}
	if m.Precision != 0.5 || m.Recall != 0.5 || m.F1 != 0.5 {
		t.Errorf("metrics = %v", m)
	}
}

func TestEvaluateNilAndEmpty(t *testing.T) {
	inst, _, pos, neg := fixture(t)
	m := Evaluate(inst, nil, pos, neg)
	if m.TP != 0 || m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("nil definition metrics = %v", m)
	}
	m2 := Evaluate(inst, logic.NewDefinition("t"), nil, nil)
	if m2.Precision != 0 || m2.Recall != 0 {
		t.Errorf("empty metrics = %v", m2)
	}
}

func TestAverage(t *testing.T) {
	ms := []Metrics{
		{TP: 2, Precision: 1, Recall: 0.5, F1: 2.0 / 3},
		{TP: 4, Precision: 0.5, Recall: 1, F1: 2.0 / 3},
	}
	avg := Average(ms)
	if avg.Precision != 0.75 || avg.Recall != 0.75 {
		t.Errorf("avg = %v", avg)
	}
	if avg.TP != 6 {
		t.Errorf("TP sum = %d", avg.TP)
	}
	if got := Average(nil); got.Precision != 0 {
		t.Error("empty average")
	}
}

func TestKFold(t *testing.T) {
	var pos, neg []logic.Atom
	for i := 0; i < 10; i++ {
		pos = append(pos, logic.GroundAtom("t", "p"+string(rune('0'+i))))
	}
	for i := 0; i < 20; i++ {
		neg = append(neg, logic.GroundAtom("t", "n"+string(rune('a'+i))))
	}
	folds := KFold(5, pos, neg, 5)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seenTest := map[string]int{}
	for _, f := range folds {
		if len(f.TestPos) != 2 || len(f.TestNeg) != 4 {
			t.Errorf("fold sizes: %d pos %d neg", len(f.TestPos), len(f.TestNeg))
		}
		if len(f.TrainPos) != 8 || len(f.TrainNeg) != 16 {
			t.Errorf("train sizes: %d pos %d neg", len(f.TrainPos), len(f.TrainNeg))
		}
		for _, e := range f.TestPos {
			seenTest[e.Key()]++
		}
		// No overlap between train and test.
		test := map[string]bool{}
		for _, e := range append(append([]logic.Atom(nil), f.TestPos...), f.TestNeg...) {
			test[e.Key()] = true
		}
		for _, e := range append(append([]logic.Atom(nil), f.TrainPos...), f.TrainNeg...) {
			if test[e.Key()] {
				t.Fatal("train/test overlap")
			}
		}
	}
	// Every positive appears in exactly one test fold.
	for k, c := range seenTest {
		if c != 1 {
			t.Errorf("example %q in %d test folds", k, c)
		}
	}
}

func TestKFoldDeterministic(t *testing.T) {
	pos := []logic.Atom{logic.GroundAtom("t", "a"), logic.GroundAtom("t", "b"), logic.GroundAtom("t", "c"), logic.GroundAtom("t", "d")}
	f1 := KFold(9, pos, pos, 2)
	f2 := KFold(9, pos, pos, 2)
	for i := range f1 {
		if len(f1[i].TestPos) != len(f2[i].TestPos) || !f1[i].TestPos[0].Equal(f2[i].TestPos[0]) {
			t.Fatal("KFold not deterministic")
		}
	}
	// k < 2 clamps to 2.
	if got := KFold(1, pos, pos, 0); len(got) != 2 {
		t.Errorf("clamp failed: %d", len(got))
	}
}

// TestDefinitionCoverageMatchesPerExample learns Castor's definitions on
// the four UW-CSE schemas, in both coverage modes and at two seeds, and
// checks that testing each against the whole example list at once (one
// Compile per clause, one prober) answers as CoversExample does clause by
// clause and one example at a time, with the same store statistics, and
// that Evaluate's counts follow those answers. Some of the definitions
// must have more than one clause, so that an example a clause covers
// skips the clauses after it.
func TestDefinitionCoverageMatchesPerExample(t *testing.T) {
	multi := 0
	for _, seed := range []int64{1, 20261017} {
		cfg := datasets.DefaultUWCSE()
		cfg.Seed = seed
		ds, err := datasets.GenerateUWCSE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
			params := ilp.Defaults()
			params.Parallelism, params.Seed, params.CoverageMode = 1, seed, mode
			for _, v := range ds.Variants {
				prob, err := ds.Problem(v.Name)
				if err != nil {
					t.Fatal(err)
				}
				def, err := castor.New().Learn(prob, params)
				if err != nil {
					t.Fatal(err)
				}
				if def.Len() > 1 {
					multi++
				}
				checkDefinitionCoverage(t, prob, def)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no learned definition has more than one clause")
	}
}

// checkDefinitionCoverage compares DefinitionCoverage and Evaluate on one
// learned definition against CoversExample one clause and example at a
// time.
func checkDefinitionCoverage(t *testing.T, prob *ilp.Problem, def *logic.Definition) {
	t.Helper()
	inst := prob.Instance
	examples := append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...)
	oneByOne, atOnce := obs.NewRegistry(), obs.NewRegistry()
	defer inst.SetObs(nil)
	inst.SetObs(obs.NewRun(nil, oneByOne))
	each := make([]bool, len(examples))
	for j, e := range examples {
		for _, c := range def.Clauses {
			if each[j] = inst.CoversExample(c, e); each[j] {
				break
			}
		}
	}
	inst.SetObs(obs.NewRun(nil, atOnce))
	all := inst.DefinitionCoverage(def, examples)
	if !reflect.DeepEqual(all, each) {
		t.Errorf("%v: DefinitionCoverage %v, CoversExample one by one %v", def, all, each)
	}
	if s1, s2 := oneByOne.Snapshot().Store, atOnce.Snapshot().Store; !reflect.DeepEqual(s1, s2) {
		t.Errorf("%v: store statistics %v one by one, %v at once", def, s1, s2)
	}
	var want Metrics
	for j, ok := range each {
		switch pos := j < len(prob.Pos); {
		case pos && ok:
			want.TP++
		case pos:
			want.FN++
		case ok:
			want.FP++
		}
	}
	if m := Evaluate(inst, def, prob.Pos, prob.Neg); m.TP != want.TP || m.FP != want.FP || m.FN != want.FN {
		t.Errorf("%v: Evaluate %v, per-example counts tp=%d fp=%d fn=%d", def, m, want.TP, want.FP, want.FN)
	}
}
