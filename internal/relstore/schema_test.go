package relstore

import (
	"slices"
	"strings"
	"testing"
)

// uwcseOriginal builds the paper's Original UW-CSE schema (Table 1) with
// the INDs of Table 5 (top+middle).
func uwcseOriginal(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema()
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
	return s
}

func TestSchemaAddRelation(t *testing.T) {
	s := NewSchema()
	r, err := s.AddRelation("student", "stud", "phase")
	if err != nil {
		t.Fatal(err)
	}
	if r.Arity() != 2 || r.AttrIndex("phase") != 1 || r.AttrIndex("nope") != -1 {
		t.Errorf("relation wrong: %v", r)
	}
	if r.String() != "student(stud,phase)" {
		t.Errorf("String = %q", r.String())
	}
	for _, bad := range []func() error{
		func() error { _, err := s.AddRelation("student", "x"); return err }, // duplicate
		func() error { _, err := s.AddRelation("empty"); return err },        // no attrs
		func() error { _, err := s.AddRelation("", "x"); return err },        // empty name
		func() error { _, err := s.AddRelation("r", "a", "a"); return err },  // dup attr
		func() error { _, err := s.AddRelation("r", ""); return err },        // empty attr
	} {
		if bad() == nil {
			t.Error("expected error")
		}
	}
	if got, ok := s.Relation("student"); !ok || got != r {
		t.Error("Relation lookup failed")
	}
	if _, ok := s.Relation("ghost"); ok {
		t.Error("ghost relation found")
	}
}

func TestSchemaRelationsOrdered(t *testing.T) {
	s := uwcseOriginal(t)
	rels := s.Relations()
	if len(rels) != 9 || s.NumRelations() != 9 {
		t.Fatalf("got %d relations", len(rels))
	}
	if rels[0].Name != "student" || rels[8].Name != "ta" {
		t.Errorf("order not preserved: %v … %v", rels[0], rels[8])
	}
}

func TestSchemaFDValidation(t *testing.T) {
	s := uwcseOriginal(t)
	if err := s.AddFD("inPhase", []string{"stud"}, []string{"phase"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFD("ghost", []string{"x"}, []string{"y"}); err == nil {
		t.Error("FD over unknown relation accepted")
	}
	if err := s.AddFD("inPhase", []string{"nope"}, []string{"phase"}); err == nil {
		t.Error("FD over unknown attribute accepted")
	}
	if len(s.FDs()) != 1 {
		t.Errorf("FDs = %v", s.FDs())
	}
}

func TestSchemaINDValidation(t *testing.T) {
	s := uwcseOriginal(t)
	if err := s.AddIND("ghost", []string{"x"}, "student", []string{"stud"}, true); err == nil {
		t.Error("unknown left relation accepted")
	}
	if err := s.AddIND("student", []string{"stud"}, "ghost", []string{"x"}, true); err == nil {
		t.Error("unknown right relation accepted")
	}
	if err := s.AddIND("student", []string{"nope"}, "inPhase", []string{"stud"}, true); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := s.AddIND("student", []string{"stud"}, "inPhase", []string{}, true); err == nil {
		t.Error("empty attr list accepted")
	}
	if err := s.AddIND("student", []string{"stud"}, "inPhase", []string{"stud", "phase"}, true); err == nil {
		t.Error("length mismatch accepted")
	}
	if got := len(s.EqualityINDs()); got != 3 {
		t.Errorf("EqualityINDs = %d", got)
	}
	s.MustAddIND("ta", []string{"stud"}, "student", []string{"stud"}, false)
	if got := len(s.EqualityINDs()); got != 3 {
		t.Errorf("subset IND counted as equality")
	}
	if got := len(s.INDs()); got != 4 {
		t.Errorf("INDs = %d", got)
	}
}

func TestINDString(t *testing.T) {
	i := IND{
		Left:     RelAttrs{Rel: "a", Attrs: []string{"x"}},
		Right:    RelAttrs{Rel: "b", Attrs: []string{"y"}},
		Equality: true,
	}
	if i.String() != "a[x] = b[y]" {
		t.Errorf("String = %q", i.String())
	}
	i.Equality = false
	if i.String() != "a[x] <= b[y]" {
		t.Errorf("String = %q", i.String())
	}
	r := i.Reversed()
	if r.Left.Rel != "b" || r.Right.Rel != "a" {
		t.Errorf("Reversed = %v", r)
	}
}

func TestSchemaDomains(t *testing.T) {
	s := uwcseOriginal(t)
	if s.Domain("stud") != "stud" {
		t.Error("default domain should be the attribute name")
	}
	s.SetDomain("person", "person")
	s.SetDomain("stud", "person")
	s.SetDomain("prof", "person")
	if s.Domain("stud") != "person" || s.Domain("prof") != "person" {
		t.Error("domain override lost")
	}
}

func TestSchemaClone(t *testing.T) {
	s := uwcseOriginal(t)
	s.SetDomain("stud", "person")
	c := s.Clone()
	c.MustAddRelation("extra", "x")
	c.SetDomain("prof", "person")
	if s.NumRelations() != 9 {
		t.Error("Clone shares relation storage")
	}
	if s.Domain("prof") != "prof" {
		t.Error("Clone shares domain storage")
	}
	if c.Domain("stud") != "person" {
		t.Error("Clone lost domains")
	}
	if len(c.INDs()) != len(s.INDs()) {
		t.Error("Clone lost INDs")
	}
}

func TestSchemaString(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation("p", "a", "b")
	s.MustAddIND("p", []string{"a"}, "p", []string{"b"}, false)
	if err := s.AddFD("p", []string{"a"}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	str := s.String()
	for _, want := range []string{"p(a,b)", "fd  p: a -> b", "ind p[a] <= p[b]"} {
		if !strings.Contains(str, want) {
			t.Errorf("String missing %q:\n%s", want, str)
		}
	}
}

func TestSharedAttrs(t *testing.T) {
	s := NewSchema()
	r1 := s.MustAddRelation("r1", "a", "b", "c")
	r2 := s.MustAddRelation("r2", "b", "d", "a")
	got := r1.SharedAttrs(r2)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("SharedAttrs = %v", got)
	}
}

func TestInclusionClasses(t *testing.T) {
	s := uwcseOriginal(t)
	classes := s.InclusionClasses(false)
	if len(classes) != 2 {
		t.Fatalf("classes = %v", classes)
	}
	// Sorted: [hasPosition professor] and [inPhase student yearsInProgram].
	if classes[0][0] != "hasPosition" || len(classes[0]) != 2 {
		t.Errorf("class 0 = %v", classes[0])
	}
	if len(classes[1]) != 3 || classes[1][1] != "student" {
		t.Errorf("class 1 = %v", classes[1])
	}
	// Subset INDs join classes only in subset mode.
	s.MustAddIND("ta", []string{"stud"}, "student", []string{"stud"}, false)
	if got := s.InclusionClasses(false); len(got) != 2 {
		t.Errorf("equality-only classes changed: %v", got)
	}
	subset := s.InclusionClasses(true)
	found := false
	for _, cl := range subset {
		for _, m := range cl {
			if m == "ta" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("ta missing from subset classes: %v", subset)
	}
}

func TestHasCyclicINDs(t *testing.T) {
	// The paper's cyclic example: S1(A,B), S2(B,C), S3(C,A) with INDs
	// S1[B]=S2[B], S2[C]=S3[C], S3[A]=S1[A].
	s := NewSchema()
	s.MustAddRelation("s1", "a", "b")
	s.MustAddRelation("s2", "b", "c")
	s.MustAddRelation("s3", "c", "a")
	s.MustAddIND("s1", []string{"b"}, "s2", []string{"b"}, true)
	s.MustAddIND("s2", []string{"c"}, "s3", []string{"c"}, true)
	s.MustAddIND("s3", []string{"a"}, "s1", []string{"a"}, true)
	if !s.HasCyclicINDs() {
		t.Error("triangle with changing attributes should be cyclic")
	}
	// The UW-CSE star (all INDs over stud) is acyclic.
	if uwcseOriginal(t).HasCyclicINDs() {
		t.Error("UW-CSE INDs should be acyclic")
	}
	// A single IND with differently named attributes is not a cycle.
	s2 := NewSchema()
	s2.MustAddRelation("m2d", "id", "directorid")
	s2.MustAddRelation("director", "id", "name")
	s2.MustAddIND("m2d", []string{"directorid"}, "director", []string{"id"}, true)
	if s2.HasCyclicINDs() {
		t.Error("single IND must not be cyclic")
	}
}

func TestCompilePlan(t *testing.T) {
	s := uwcseOriginal(t)
	s.MustAddIND("ta", []string{"stud"}, "student", []string{"stud"}, false)
	p := CompilePlan(s, false)
	if p.Schema() != s {
		t.Error("Schema accessor wrong")
	}
	// student participates in two equality INDs → two outgoing hops.
	hops := p.Partners("student")
	if len(hops) != 2 {
		t.Fatalf("student hops = %v", hops)
	}
	if hops[0].Rel != "inPhase" || hops[1].Rel != "yearsInProgram" {
		t.Errorf("hops = %v", hops)
	}
	// Equality INDs are chased both ways.
	if got := p.Partners("inPhase"); len(got) != 1 || got[0].Rel != "student" {
		t.Errorf("inPhase hops = %v", got)
	}
	// Subset IND ta⊆student not chased in equality mode…
	if got := p.Partners("ta"); len(got) != 0 {
		t.Errorf("ta hops in equality mode = %v", got)
	}
	// …but chased left→right in subset mode.
	ps := CompilePlan(s, true)
	if got := ps.Partners("ta"); len(got) != 1 || got[0].Rel != "student" {
		t.Errorf("ta hops in subset mode = %v", got)
	}
	// and not right→left.
	for _, h := range ps.Partners("student") {
		if h.Rel == "ta" {
			t.Error("subset IND chased backwards")
		}
	}
	inClass := func(rel string) bool {
		return slices.ContainsFunc(p.Classes(), func(c []string) bool { return slices.Contains(c, rel) })
	}
	if !inClass("student") || inClass("publication") {
		t.Errorf("Classes = %v, want student in a class and publication in none", p.Classes())
	}
	if len(p.Classes()) != 2 {
		t.Errorf("Classes = %v", p.Classes())
	}
}
