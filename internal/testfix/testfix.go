// Package testfix provides small, fully deterministic UW-CSE-style
// databases and ILP problems shared by the learner test suites. The world
// mirrors the paper's running example: students, professors, publications,
// courses — under both the Original schema and the 4NF schema of Table 1,
// related by the composition of Example 3.6.
package testfix

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
)

// ValueAttrs are the value domains of the UW-CSE schemas: constants at
// these positions stay constants during bottom-clause construction.
func ValueAttrs() map[string]bool {
	return map[string]bool{"phase": true, "years": true, "position": true, "level": true, "term": true}
}

// SchemaOriginal builds the Original UW-CSE schema of Table 1 with the
// INDs of Table 5.
func SchemaOriginal() *relstore.Schema {
	s := relstore.NewSchema()
	s.MustAddRelation("student", "stud")
	s.MustAddRelation("inPhase", "stud", "phase")
	s.MustAddRelation("yearsInProgram", "stud", "years")
	s.MustAddRelation("professor", "prof")
	s.MustAddRelation("hasPosition", "prof", "position")
	s.MustAddRelation("publication", "title", "person")
	s.MustAddRelation("courseLevel", "crs", "level")
	s.MustAddRelation("taughtBy", "crs", "prof", "term")
	s.MustAddRelation("ta", "crs", "stud", "term")
	s.MustAddIND("student", []string{"stud"}, "inPhase", []string{"stud"}, true)
	s.MustAddIND("student", []string{"stud"}, "yearsInProgram", []string{"stud"}, true)
	s.MustAddIND("professor", []string{"prof"}, "hasPosition", []string{"prof"}, true)
	s.SetDomain("stud", "person")
	s.SetDomain("prof", "person")
	s.SetDomain("person", "person")
	return s
}

// Schema4NF builds the 4NF UW-CSE schema of Table 1 (student and professor
// composed).
func Schema4NF() *relstore.Schema {
	s := relstore.NewSchema()
	s.MustAddRelation("student", "stud", "phase", "years")
	s.MustAddRelation("professor", "prof", "position")
	s.MustAddRelation("publication", "title", "person")
	s.MustAddRelation("courseLevel", "crs", "level")
	s.MustAddRelation("taughtBy", "crs", "prof", "term")
	s.MustAddRelation("ta", "crs", "stud", "term")
	s.SetDomain("stud", "person")
	s.SetDomain("prof", "person")
	s.SetDomain("person", "person")
	return s
}

// World is the fixture: corresponding instances of both schemas plus
// labeled advisedBy examples. advisedBy(s,p) holds exactly when s and p
// share a publication and p holds the faculty position.
type World struct {
	Original *relstore.Instance
	FourNF   *relstore.Instance
	Pos, Neg []logic.Atom
}

// NewWorld builds the fixture with n students (n ≥ 4).
func NewWorld(n int) *World {
	if n < 4 {
		n = 4
	}
	so := SchemaOriginal()
	s4 := Schema4NF()
	io := relstore.NewInstance(so)
	i4 := relstore.NewInstance(s4)

	phases := []string{"prelim", "post_generals"}
	positions := []string{"faculty", "adjunct"}
	numProfs := 4

	for p := 0; p < numProfs; p++ {
		prof := fmt.Sprintf("prof%d", p)
		pos := positions[p%2]
		io.MustInsert("professor", prof)
		io.MustInsert("hasPosition", prof, pos)
		i4.MustInsert("professor", prof, pos)
	}
	for k := 0; k < n; k++ {
		stud := fmt.Sprintf("stud%d", k)
		phase := phases[k%2]
		years := fmt.Sprintf("%d", 1+k%6)
		io.MustInsert("student", stud)
		io.MustInsert("inPhase", stud, phase)
		io.MustInsert("yearsInProgram", stud, years)
		i4.MustInsert("student", stud, phase, years)

		// Each student co-publishes with prof k%numProfs.
		prof := fmt.Sprintf("prof%d", k%numProfs)
		title := fmt.Sprintf("title%d", k)
		for _, inst := range []*relstore.Instance{io, i4} {
			inst.MustInsert("publication", title, stud)
			inst.MustInsert("publication", title, prof)
		}
	}
	// Courses: course j at level 400+100*(j%2), taught by prof j%numProfs,
	// TA'd by student j.
	for j := 0; j < n/2; j++ {
		crs := fmt.Sprintf("crs%d", j)
		level := fmt.Sprintf("%d", 400+100*(j%2))
		prof := fmt.Sprintf("prof%d", j%numProfs)
		stud := fmt.Sprintf("stud%d", j)
		for _, inst := range []*relstore.Instance{io, i4} {
			inst.MustInsert("courseLevel", crs, level)
			inst.MustInsert("taughtBy", crs, prof, "autumn")
			inst.MustInsert("ta", crs, stud, "autumn")
		}
	}

	w := &World{Original: io, FourNF: i4}
	// advisedBy(s,p): co-publication with a faculty professor.
	for k := 0; k < n; k++ {
		stud := fmt.Sprintf("stud%d", k)
		for p := 0; p < numProfs; p++ {
			prof := fmt.Sprintf("prof%d", p)
			copub := p == k%numProfs
			faculty := p%2 == 0
			e := logic.GroundAtom("advisedBy", stud, prof)
			if copub && faculty {
				w.Pos = append(w.Pos, e)
			} else {
				w.Neg = append(w.Neg, e)
			}
		}
	}
	return w
}

// Target returns the advisedBy target relation symbol.
func Target() *relstore.Relation {
	return &relstore.Relation{Name: "advisedBy", Attrs: []string{"stud", "prof"}}
}

// ProblemOriginal builds the advisedBy problem over the Original schema.
func (w *World) ProblemOriginal() *ilp.Problem {
	return &ilp.Problem{
		Instance:   w.Original,
		Target:     Target(),
		Pos:        w.Pos,
		Neg:        w.Neg,
		ValueAttrs: ValueAttrs(),
	}
}

// Problem4NF builds the advisedBy problem over the 4NF schema.
func (w *World) Problem4NF() *ilp.Problem {
	return &ilp.Problem{
		Instance:   w.FourNF,
		Target:     Target(),
		Pos:        w.Pos,
		Neg:        w.Neg,
		ValueAttrs: ValueAttrs(),
	}
}

// NamedProblem is one schema's learning problem of a generated dataset,
// named dataset/variant.
type NamedProblem struct {
	Name string
	Prob *ilp.Problem
}

// TenSchemas generates the paper's three datasets at small, fixed scales
// and seeds and returns the problems of all ten schemas, in the paper's
// order: UW-CSE ×4 at its default scale, HIV ×3 at scale 0.2 (direct
// coverage of its molecules backtracks for milliseconds per test) and IMDb
// ×3 at scale 0.5.
func TenSchemas() ([]NamedProblem, error) {
	uw := datasets.DefaultUWCSE()
	uw.Seed = 3
	hiv := datasets.DefaultHIV2K4K()
	hiv.Seed, hiv.Scale = 5, 0.2
	imdb := datasets.DefaultIMDb()
	imdb.Seed, imdb.Scale = 9, 0.5
	var out []NamedProblem
	for _, gen := range []func() (*datasets.Dataset, error){
		func() (*datasets.Dataset, error) { return datasets.GenerateUWCSE(uw) },
		func() (*datasets.Dataset, error) { return datasets.GenerateHIV(hiv) },
		func() (*datasets.Dataset, error) { return datasets.GenerateIMDb(imdb) },
	} {
		ds, err := gen()
		if err != nil {
			return nil, err
		}
		for _, v := range ds.Variants {
			prob, err := ds.Problem(v.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, NamedProblem{Name: ds.Name + "/" + v.Name, Prob: prob})
		}
	}
	return out, nil
}
