package experiments

// Executable witnesses for the paper's formal results: each test
// constructs the situation a theorem describes and checks the claimed
// (non-)invariance empirically.

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/castor"
	"repro/internal/datasets"
	"repro/internal/foil"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/transform"
)

// TestTheorem51ClauseLengthNotInvariant builds the witness of Theorem 5.1:
// the target T(x,y) ← R1(x,z,w), R2(y,z,v) has clause length 3 over the
// composed schema but length 5 over its vertical decomposition, so a
// top-down learner bounded at clauselength 3 can represent it over one
// schema and not the other.
func TestTheorem51ClauseLengthNotInvariant(t *testing.T) {
	// Composed schema R = {R1(A,B,C), R2(D,C,E)}: R1 and R2 join on C.
	r := relstore.NewSchema()
	r.MustAddRelation("r1", "a", "b", "c")
	r.MustAddRelation("r2", "d", "c", "e")
	// Decomposition S: R1 → S1(A,B), S2(B,C); R2 → S3(D,C), S4(C,E).
	pipe := transform.NewPipeline(r)
	pipe.MustDecompose("r1",
		transform.Part{Name: "s1", Attrs: []string{"a", "b"}},
		transform.Part{Name: "s2", Attrs: []string{"b", "c"}},
	)
	pipe.MustDecompose("r2",
		transform.Part{Name: "s3", Attrs: []string{"d", "c"}},
		transform.Part{Name: "s4", Attrs: []string{"c", "e"}},
	)

	// A database where T(x,y) ⇔ R1(x,·,w) ∧ R2(y,w,·): over R the target
	// is the 3-literal clause T(X,Y) ← r1(X,Z,W), r2(Y,W,V); over S the
	// shortest equivalent clause is T(X,Y) ← s1(X,Z), s2(Z,W), s3(Y,W),
	// which exceeds clauselength 3.
	ri := relstore.NewInstance(r)
	pairs := [][2]string{{"x1", "y1"}, {"x2", "y2"}, {"x3", "y3"}, {"x4", "y4"}}
	for k, p := range pairs {
		w := "w" + itoa(k)
		ri.MustInsert("r1", p[0], "z"+itoa(k), w)
		ri.MustInsert("r2", p[1], w, "e"+itoa(k))
	}
	si, err := pipe.Apply(ri)
	if err != nil {
		t.Fatal(err)
	}

	target := &relstore.Relation{Name: "t", Attrs: []string{"a", "d"}}
	var pos, neg []logic.Atom
	for _, p := range pairs {
		pos = append(pos, logic.GroundAtom("t", p[0], p[1]))
	}
	for k, p := range pairs {
		neg = append(neg, logic.GroundAtom("t", p[0], pairs[(k+1)%len(pairs)][1]))
		_ = p
	}
	params := ilp.Defaults()
	params.ClauseLength = 3 // enough over R, not over S

	learnOn := func(inst *relstore.Instance) int {
		prob := &ilp.Problem{Instance: inst, Target: target, Pos: pos, Neg: neg}
		def, err := foil.New().Learn(prob, params)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, e := range pos {
			if def != nil && inst.DefinitionCovers(def, e) {
				covered++
			}
		}
		// Only count clauses that are consistent (no negative coverage).
		for _, e := range neg {
			if def != nil && inst.DefinitionCovers(def, e) {
				return 0
			}
		}
		return covered
	}
	overR := learnOn(ri)
	overS := learnOn(si)
	if overR != len(pos) {
		t.Errorf("composed schema: FOIL should represent the target at clauselength 3, covered %d/%d", overR, len(pos))
	}
	if overS == len(pos) {
		t.Error("decomposed schema: the target needs clause length 5; a consistent complete definition at bound 3 contradicts Theorem 5.1's witness")
	}
}

// TestLemma63DepthBoundSchemaDependent is Example 6.2: the commonLevel
// clause has depth 2 over the Original schema but depth 1 once courseLevel
// and ta are composed, so a depth-1 bottom clause captures the join over
// one schema and not the other.
func TestLemma63DepthBoundSchemaDependent(t *testing.T) {
	orig := relstore.NewSchema()
	orig.MustAddRelation("courseLevel", "crs", "level")
	orig.MustAddRelation("ta", "crs", "stud", "term")
	orig.MustAddIND("courseLevel", []string{"crs"}, "ta", []string{"crs"}, true)
	pipe := transform.NewPipeline(orig)
	pipe.MustCompose("courseLevelTa", "courseLevel", "ta")

	oi := relstore.NewInstance(orig)
	oi.MustInsert("courseLevel", "c1", "level_400")
	oi.MustInsert("courseLevel", "c2", "level_400")
	oi.MustInsert("ta", "c1", "s1", "autumn")
	oi.MustInsert("ta", "c2", "s2", "autumn")
	ci, err := pipe.Apply(oi)
	if err != nil {
		t.Fatal(err)
	}

	target := &relstore.Relation{Name: "commonLevel", Attrs: []string{"stud", "stud2"}}
	valueAttrs := map[string]bool{"level": true, "term": true}
	e := logic.GroundAtom("commonLevel", "s1", "s2")

	probO := &ilp.Problem{Instance: oi, Target: target, Pos: []logic.Atom{e}, ValueAttrs: valueAttrs}
	probC := &ilp.Problem{Instance: ci, Target: target, Pos: []logic.Atom{e}, ValueAttrs: valueAttrs}

	// Classic depth-1 bottom clauses: over the composed schema the level
	// join is present; over the Original schema the courseLevel tuples are
	// only reachable at depth 2.
	bcO := ilp.BottomClause(probO, e, 1, 0)
	bcC := ilp.BottomClause(probC, e, 1, 0)
	hasLevelO, hasLevelC := false, false
	for _, a := range bcO.Body {
		if a.Pred == "courseLevel" {
			hasLevelO = true
		}
	}
	for _, a := range bcC.Body {
		if a.Pred == "courseLevelTa" {
			hasLevelC = true
		}
	}
	if hasLevelO {
		t.Error("Original schema: courseLevel should be out of reach at depth 1")
	}
	if !hasLevelC {
		t.Error("composed schema: the composed tuple carries the level at depth 1")
	}

	// Castor's IND-chasing construction pulls the courseLevel partners in
	// the same step, restoring the equivalence (Lemma 7.5).
	planO := relstore.CompilePlan(orig, false)
	params := ilp.Defaults()
	params.Depth = 1
	gO := castor.BottomClause(probO, planO, e, params)
	found := false
	for _, a := range gO.Body {
		if a.Pred == "courseLevel" {
			found = true
		}
	}
	if !found {
		t.Error("Castor's chase should pull courseLevel through the IND at depth 1")
	}
}

// TestExample65ARMGNotSchemaIndependent reproduces Example 6.5: ProGolem's
// literal-at-a-time ARMG (ilp.ARMG with no plan) keeps student(x) over the
// Original schema but removes the whole composed literal over 4NF,
// producing non-equivalent generalizations — while Castor's IND-aware ARMG
// (ilp.ARMG with the schema's plan) treats both alike (Example 7.6).
func TestExample65ARMGNotSchemaIndependent(t *testing.T) {
	orig := relstore.NewSchema()
	orig.MustAddRelation("student", "stud")
	orig.MustAddRelation("inPhase", "stud", "phase")
	orig.MustAddRelation("yearsInProgram", "stud", "years")
	orig.MustAddIND("student", []string{"stud"}, "inPhase", []string{"stud"}, true)
	orig.MustAddIND("student", []string{"stud"}, "yearsInProgram", []string{"stud"}, true)
	pipe := transform.NewPipeline(orig)
	pipe.MustCompose("student", "student", "inPhase", "yearsInProgram")

	oi := relstore.NewInstance(orig)
	oi.MustInsert("student", "abe")
	oi.MustInsert("inPhase", "abe", "prelim")
	oi.MustInsert("yearsInProgram", "abe", "3")
	oi.MustInsert("student", "bea")
	oi.MustInsert("inPhase", "bea", "post_generals")
	oi.MustInsert("yearsInProgram", "bea", "3")
	ci, err := pipe.Apply(oi)
	if err != nil {
		t.Fatal(err)
	}

	target := &relstore.Relation{Name: "hardWorking", Attrs: []string{"stud"}}
	values := map[string]bool{"phase": true, "years": true}
	pos := []logic.Atom{logic.GroundAtom("hardWorking", "abe"), logic.GroundAtom("hardWorking", "bea")}
	probO := &ilp.Problem{Instance: oi, Target: target, Pos: pos, ValueAttrs: values}
	probC := &ilp.Problem{Instance: ci, Target: target, Pos: pos, ValueAttrs: values}
	testerO := ilp.NewTester(probO, ilp.Defaults())
	testerC := ilp.NewTester(probC, ilp.Defaults())

	cO := logic.MustParseClause("hardWorking(X) :- student(X), inPhase(X, prelim), yearsInProgram(X, 3).")
	cC := logic.MustParseClause("hardWorking(X) :- student(X, prelim, 3).")
	e2 := logic.GroundAtom("hardWorking", "bea")

	gO := ilp.ARMG(testerO, nil, cO, e2)
	gC := ilp.ARMG(testerC, nil, cC, e2)
	if gO == nil || gC == nil {
		t.Fatal("ARMG failed")
	}
	// ProGolem keeps student(X) and yearsInProgram(X,3) over Original but
	// loses everything over 4NF: the generalizations are not equivalent.
	keptO := len(gO.Body)
	keptC := len(gC.Body)
	if keptO == 0 || keptC != 0 {
		t.Fatalf("expected the Example 6.5 asymmetry, got %v vs %v", gO, gC)
	}

	// Castor: equivalent (empty) generalizations on both schemas.
	planO := relstore.CompilePlan(orig, false)
	planC := relstore.CompilePlan(pipe.To(), false)
	aO := ilp.ARMG(testerO, planO, cO, e2)
	aC := ilp.ARMG(testerC, planC, cC, e2)
	if aO == nil || aC == nil {
		t.Fatal("Castor ARMG failed")
	}
	if len(aO.Body) != len(aC.Body) {
		t.Errorf("Castor ARMG asymmetric: %v vs %v", aO, aC)
	}
}

// TestLemma78InclusionInstancesCorrespond checks the premise of Lemma 7.8:
// negative reduction removes inclusion instances, and the instances of a
// bottom clause stand for the same joined rows over every schema of a
// dataset. For the first ten positives of UW-CSE (scale 2), HIV (scale
// 0.5) and IMDb (scale 0.5), at generator seeds 1 and 2, Castor's ground
// bottom clause over each schema must group into the same multiset of
// inclusion instances, each identified by the sorted set of constants its
// literals hold.
func TestLemma78InclusionInstancesCorrespond(t *testing.T) {
	params := ilp.Defaults()
	for _, seed := range []int64{1, 2} {
		uw, hiv, imdb := datasets.DefaultUWCSE(), datasets.DefaultHIV2K4K(), datasets.DefaultIMDb()
		uw.Seed, uw.Scale = seed, 2
		hiv.Seed, hiv.Scale = seed, 0.5
		imdb.Seed, imdb.Scale = seed, 0.5
		for _, gen := range []func() (*datasets.Dataset, error){
			func() (*datasets.Dataset, error) { return datasets.GenerateUWCSE(uw) },
			func() (*datasets.Dataset, error) { return datasets.GenerateHIV(hiv) },
			func() (*datasets.Dataset, error) { return datasets.GenerateIMDb(imdb) },
		} {
			ds, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			plans := make([]*relstore.Plan, len(ds.Variants))
			builders := make([]*ilp.Builder, len(ds.Variants))
			for i, v := range ds.Variants {
				prob, err := ds.Problem(v.Name)
				if err != nil {
					t.Fatal(err)
				}
				plans[i] = relstore.CompilePlan(prob.Instance.Schema(), false)
				builders[i] = ilp.NewBuilder(prob, plans[i])
			}
			// The check is void unless some bottom clause differs in length
			// across the schemas, its literals grouped into fewer instances.
			regrouped := false
			for _, e := range ds.Pos[:10] {
				var want []string
				lits := -1
				for i, v := range ds.Variants {
					c := builders[i].Build(e, params, nil)
					got := instanceRows(c, plans[i])
					if i == 0 {
						want, lits = got, len(c.Body)
						continue
					}
					regrouped = regrouped || len(c.Body) != lits
					if !slices.Equal(got, want) {
						t.Errorf("%s seed %d, %v: %s has instances\n %v\nwhere %s has\n %v",
							ds.Name, seed, e, v.Name, got, ds.Variants[0].Name, want)
					}
				}
			}
			if !regrouped {
				t.Errorf("%s seed %d: every schema's bottom clauses have the same length", ds.Name, seed)
			}
		}
	}
}

// instanceRows returns the clause's inclusion instances as the sorted
// constants each one's literals hold, sorted.
func instanceRows(c *logic.Clause, plan *relstore.Plan) []string {
	var out []string
	for _, inst := range ilp.InclusionInstances(c, plan) {
		var consts []string
		for _, li := range inst {
			for _, a := range c.Body[li].Args {
				consts = append(consts, a.Name)
			}
		}
		slices.Sort(consts)
		out = append(out, strings.Join(slices.Compact(consts), ","))
	}
	slices.Sort(out)
	return out
}
