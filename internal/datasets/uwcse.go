package datasets

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/transform"
)

// UW-CSE (§9.1.1, Tables 1 and 5): an academic department database under
// four schemas — Original (9 relations), 4NF (6), Denormalized-1 (5) and
// Denormalized-2 (4) — derived from the Original schema by the paper's
// composition sequence. The target is advisedBy(stud, prof); the generator
// plants it as "the student co-publishes with the professor and the
// professor holds the faculty position", optionally flipping a fraction of
// labels as noise.

// UWCSEConfig sizes the generator.
type UWCSEConfig struct {
	Students   int
	Professors int
	Courses    int
	// PubsPerStudent is how many co-publications each advised pair shares.
	PubsPerStudent int
	// NoiseFrac flips this fraction of example labels (the real UW-CSE
	// task is noisy; the paper's learners run with minprec 0.67).
	NoiseFrac float64
	// NegPerPos is the closed-world negative sampling ratio (paper: 2).
	NegPerPos int
	Seed      int64
	// Scale multiplies Students/Professors/Courses; 0 or 1 leaves the
	// configured counts untouched.
	Scale float64
}

// DefaultUWCSE mirrors the scale of the real dataset (≈100 positives).
func DefaultUWCSE() UWCSEConfig {
	return UWCSEConfig{
		Students:       48,
		Professors:     12,
		Courses:        24,
		PubsPerStudent: 2,
		NoiseFrac:      0.05,
		NegPerPos:      2,
		Seed:           7,
	}
}

// PaperUWCSE is the paper-scale preset. The real UW-CSE benchmark is
// small (a few thousand facts, ≈100 positives) and DefaultUWCSE already
// mirrors it, so the paper preset is the default — it exists so all
// three datasets expose the same Paper* entry point.
func PaperUWCSE() UWCSEConfig { return DefaultUWCSE() }

// uwcseValueAttrs are the UW-CSE value domains.
func uwcseValueAttrs() map[string]bool {
	return map[string]bool{"phase": true, "years": true, "position": true, "level": true, "term": true}
}

// UWCSEOriginalSchema builds the Original schema of Table 1 with the INDs
// of Table 5 (top and middle: the equality INDs the paper enforces plus
// the subset INDs).
func UWCSEOriginalSchema() *relstore.Schema {
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
	// Table 5 top: INDs in the original dataset's constraints.
	s.MustAddIND("student", []string{"stud"}, "inPhase", []string{"stud"}, true)
	s.MustAddIND("hasPosition", []string{"prof"}, "professor", []string{"prof"}, true)
	s.MustAddIND("ta", []string{"crs"}, "taughtBy", []string{"crs"}, true)
	// Table 5 middle: INDs the paper adds (restricting to Faculty) to make
	// the transformations bijective.
	s.MustAddIND("student", []string{"stud"}, "yearsInProgram", []string{"stud"}, true)
	s.MustAddIND("taughtBy", []string{"prof"}, "professor", []string{"prof"}, true)
	s.MustAddIND("courseLevel", []string{"crs"}, "taughtBy", []string{"crs"}, true)
	// Remaining subset IND: every TA is a student.
	s.MustAddIND("ta", []string{"stud"}, "student", []string{"stud"}, false)
	s.SetDomain("stud", "person")
	s.SetDomain("prof", "person")
	s.SetDomain("person", "person")
	return s
}

// uwcsePipelines builds the three composition pipelines Original→4NF→
// Denormalized-1→Denormalized-2 (§9.1.1).
func uwcsePipelines(original *relstore.Schema) (*transform.Pipeline, *transform.Pipeline, *transform.Pipeline) {
	to4nf := transform.NewPipeline(original)
	to4nf.MustCompose("student", "student", "inPhase", "yearsInProgram")
	to4nf.MustCompose("professor", "professor", "hasPosition")

	toD1 := transform.NewPipeline(to4nf.To())
	toD1.MustCompose("courseTaught", "courseLevel", "taughtBy")

	toD2 := transform.NewPipeline(toD1.To())
	toD2.MustCompose("courseProf", "courseTaught", "professor")
	return to4nf, toD1, toD2
}

// GenerateUWCSE builds the dataset under all four schemas.
func GenerateUWCSE(cfg UWCSEConfig) (*Dataset, error) {
	cfg.Students = scaleCount(cfg.Students, cfg.Scale)
	cfg.Professors = scaleCount(cfg.Professors, cfg.Scale)
	cfg.Courses = scaleCount(cfg.Courses, cfg.Scale)
	// The equality IND taughtBy[prof] = professor[prof] requires every
	// professor to teach, so there must be at least one course per
	// professor (and one TA per course needs a student).
	if cfg.Courses < cfg.Professors {
		cfg.Courses = cfg.Professors
	}
	if cfg.Students < 1 || cfg.Professors < 1 {
		return nil, fmt.Errorf("datasets: UW-CSE needs at least one student and professor")
	}
	r := newRng(cfg.Seed)
	schema := UWCSEOriginalSchema()
	inst := relstore.NewInstance(schema)

	phases := []string{"pre_quals", "post_quals", "post_generals"}
	positions := []string{"faculty", "affiliate", "adjunct"}
	terms := []string{"autumn", "winter", "spring"}
	levels := []string{"level_400", "level_500"}

	// Professors: every professor has a position, teaches at least one
	// course (taughtBy[prof] = professor[prof] must hold).
	profs := make([]string, cfg.Professors)
	profPos := make([]string, cfg.Professors)
	for p := range profs {
		profs[p] = "prof" + strconv.Itoa(p)
		// Round-robin positions: exactly ⌈1/3⌉ of the professors are
		// faculty at every scale, so the positive class never collapses.
		profPos[p] = positions[p%len(positions)]
		inst.MustInsert("professor", profs[p])
		inst.MustInsert("hasPosition", profs[p], profPos[p])
	}
	// Students with phase and years.
	studs := make([]string, cfg.Students)
	for k := range studs {
		studs[k] = "stud" + strconv.Itoa(k)
		inst.MustInsert("student", studs[k])
		inst.MustInsert("inPhase", studs[k], phases[r.Intn(len(phases))])
		inst.MustInsert("yearsInProgram", studs[k], "year_"+strconv.Itoa(1+r.Intn(7)))
	}
	// Advising ground truth: each student has one intended advisor; the
	// pair co-publishes. Students may also co-publish with a non-advisor
	// (distractor) to keep the task non-trivial.
	advisor := make([]int, cfg.Students)
	title := 0
	for k := range studs {
		advisor[k] = r.Intn(cfg.Professors)
		for j := 0; j < cfg.PubsPerStudent; j++ {
			tt := "title" + strconv.Itoa(title)
			title++
			inst.MustInsert("publication", tt, studs[k])
			inst.MustInsert("publication", tt, profs[advisor[k]])
		}
		if r.Float64() < 0.3 {
			other := r.Intn(cfg.Professors)
			tt := "title" + strconv.Itoa(title)
			title++
			inst.MustInsert("publication", tt, studs[k])
			inst.MustInsert("publication", tt, profs[other])
		}
	}
	// Courses: each has a level, one teaching professor and at least one
	// TA (ta[crs] = taughtBy[crs] = courseLevel[crs] equalities).
	for c := 0; c < cfg.Courses; c++ {
		crs := "crs" + strconv.Itoa(c)
		term := terms[r.Intn(len(terms))]
		inst.MustInsert("courseLevel", crs, levels[r.Intn(len(levels))])
		inst.MustInsert("taughtBy", crs, profs[c%cfg.Professors], term)
		inst.MustInsert("ta", crs, studs[c%cfg.Students], term)
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("datasets: UW-CSE generator broke its constraints: %w", err)
	}

	// Labels: advisedBy(s,p) ⇔ p is s's advisor and p is faculty. Every
	// (student, professor) pair is an example; labelling, noise and
	// negative sampling run over pair codes k·P+p, and atoms are built only
	// for the pairs kept (about 1.5k of 518k at scale 30).
	nprof := len(profs)
	if len(studs) > math.MaxInt32/nprof {
		return nil, fmt.Errorf("datasets: UW-CSE with %d students and %d professors has too many pairs", len(studs), nprof)
	}
	pos := make([]int32, 0, len(studs))
	neg := make([]int32, 0, len(studs)*nprof)
	for k := range studs {
		for p := range profs {
			code := int32(k*nprof + p)
			if advisor[k] == p && profPos[p] == "faculty" {
				pos = append(pos, code)
			} else {
				neg = append(neg, code)
			}
		}
	}
	pos, neg = flipLabels(r, pos, neg, cfg.NoiseFrac)
	if cfg.NegPerPos > 0 {
		neg = sampleExamples(r, neg, cfg.NegPerPos*len(pos))
	}
	atoms := func(codes []int32) []logic.Atom {
		out := make([]logic.Atom, len(codes))
		for i, c := range codes {
			out[i] = logic.GroundAtom("advisedBy", studs[int(c)/nprof], profs[int(c)%nprof])
		}
		return out
	}

	to4nf, toD1, toD2 := uwcsePipelines(schema)
	i4, err := to4nf.Apply(inst)
	if err != nil {
		return nil, fmt.Errorf("datasets: UW-CSE 4NF: %w", err)
	}
	iD1, err := toD1.Apply(i4)
	if err != nil {
		return nil, fmt.Errorf("datasets: UW-CSE Denormalized-1: %w", err)
	}
	iD2, err := toD2.Apply(iD1)
	if err != nil {
		return nil, fmt.Errorf("datasets: UW-CSE Denormalized-2: %w", err)
	}

	return &Dataset{
		Name: "UW-CSE",
		Variants: []*Variant{
			{Name: "Original", Schema: schema, Instance: inst},
			{Name: "4NF", Schema: to4nf.To(), Instance: i4},
			{Name: "Denormalized-1", Schema: toD1.To(), Instance: iD1},
			{Name: "Denormalized-2", Schema: toD2.To(), Instance: iD2},
		},
		Target:     &relstore.Relation{Name: "advisedBy", Attrs: []string{"stud", "prof"}},
		Pos:        atoms(pos),
		Neg:        atoms(neg),
		ValueAttrs: uwcseValueAttrs(),
	}, nil
}

// UWCSEPipelineTo returns the pipeline from the Original schema to the
// named variant (nil for "Original"); used by the Figure 3 experiment to
// map random definitions across schemas.
func UWCSEPipelineTo(original *relstore.Schema, variant string) (*transform.Pipeline, error) {
	to4nf, toD1, toD2 := uwcsePipelines(original)
	switch variant {
	case "Original":
		return nil, nil
	case "4NF":
		return to4nf, nil
	case "Denormalized-1":
		return transform.Concat(to4nf, toD1)
	case "Denormalized-2":
		p, err := transform.Concat(to4nf, toD1)
		if err != nil {
			return nil, err
		}
		return transform.Concat(p, toD2)
	}
	return nil, fmt.Errorf("datasets: unknown UW-CSE variant %q", variant)
}
