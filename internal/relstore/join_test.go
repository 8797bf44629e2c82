package relstore

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// tkey renders a tuple as a canonical test key (the store itself no
// longer builds joined key strings).
func tkey(tp Tuple) string { return strings.Join(tp, "\x00") }

// refResult is an anonymous relation over string tuples: the operand and
// result of the reference join and projection below.
type refResult struct {
	Attrs  []string
	Tuples []Tuple
}

// refTable materializes a stored table as a reference operand.
func refTable(t *Table) *refResult { return &refResult{Attrs: t.rel.Attrs, Tuples: t.Tuples()} }

// refDedup drops repeated tuples, keeping first occurrences in order.
func refDedup(tuples []Tuple) []Tuple {
	seen := make(map[string]bool, len(tuples))
	out := tuples[:0]
	for _, tp := range tuples {
		if k := tkey(tp); !seen[k] {
			seen[k] = true
			out = append(out, tp)
		}
	}
	return out
}

// refJoin is the natural join over string tuples, the reference the
// id-space composition is checked against: a hash join on the shared
// attributes that takes a's tuples in order, each with its partners in b
// in b's order, and drops repeated tuples. The output attributes are a's,
// then b's others. Inputs sharing no attribute are refused.
func refJoin(a, b *refResult) (*refResult, error) {
	var aPos, bPos, bKeep []int
	out := &refResult{Attrs: slices.Clone(a.Attrs)}
	for i, attr := range b.Attrs {
		if p := slices.Index(a.Attrs, attr); p >= 0 {
			aPos, bPos = append(aPos, p), append(bPos, i)
		} else {
			out.Attrs = append(out.Attrs, attr)
			bKeep = append(bKeep, i)
		}
	}
	if len(aPos) == 0 {
		return nil, errors.New("relstore: natural join with no shared attributes (would be a Cartesian product)")
	}
	key := func(tp Tuple, pos []int) string {
		parts := make([]string, len(pos))
		for i, p := range pos {
			parts[i] = tp[p]
		}
		return strings.Join(parts, "\x00")
	}
	index := make(map[string][]Tuple, len(b.Tuples))
	for _, bt := range b.Tuples {
		k := key(bt, bPos)
		index[k] = append(index[k], bt)
	}
	for _, at := range a.Tuples {
		for _, bt := range index[key(at, aPos)] {
			tp := slices.Clone(at)
			for _, i := range bKeep {
				tp = append(tp, bt[i])
			}
			out.Tuples = append(out.Tuples, tp)
		}
	}
	out.Tuples = refDedup(out.Tuples)
	return out, nil
}

// refJoinRelations joins the named relations of i left to right with
// refJoin.
func refJoinRelations(i *Instance, rels ...string) (*refResult, error) {
	if len(rels) == 0 {
		return nil, errors.New("relstore: join of zero relations")
	}
	var acc *refResult
	for _, name := range rels {
		t := i.Table(name)
		if t == nil {
			return nil, fmt.Errorf("relstore: join over unknown relation %q", name)
		}
		if acc == nil {
			acc = refTable(t)
			continue
		}
		var err error
		if acc, err = refJoin(acc, refTable(t)); err != nil {
			return nil, fmt.Errorf("joining %q: %w", name, err)
		}
	}
	return acc, nil
}

// refProject restricts a reference result to attrs, dropping repeats.
func refProject(r *refResult, attrs []string) (*refResult, error) {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		if pos[i] = slices.Index(r.Attrs, a); pos[i] < 0 {
			return nil, fmt.Errorf("relstore: projection attribute %q not present", a)
		}
	}
	out := &refResult{Attrs: slices.Clone(attrs)}
	for _, tp := range r.Tuples {
		proj := make(Tuple, len(pos))
		for i, p := range pos {
			proj[i] = tp[p]
		}
		out.Tuples = append(out.Tuples, proj)
	}
	out.Tuples = refDedup(out.Tuples)
	return out, nil
}

// sameResult fails the test unless the two results have the same
// attributes and hold the same tuples in the same order.
func sameResult(t *testing.T, what string, got, want *refResult) {
	t.Helper()
	if !slices.Equal(got.Attrs, want.Attrs) {
		t.Fatalf("%s: attributes %v, reference %v", what, got.Attrs, want.Attrs)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d tuples %v, reference %d %v", what, len(got.Tuples), got.Tuples, len(want.Tuples), want.Tuples)
	}
	for k := range got.Tuples {
		if !got.Tuples[k].Equal(want.Tuples[k]) {
			t.Fatalf("%s: tuple %d is %v, reference %v", what, k, got.Tuples[k], want.Tuples[k])
		}
	}
}

// sameError fails the test unless both errors are nil or both say the
// same.
func sameError(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
}

// joinIDs composes rels of i in the store's id space into a new instance
// whose one relation, "joined", takes the natural-join attribute order. It
// checks the result against refJoinRelations (the same error, or the same
// tuples in the same order) and returns the instance and its tuples.
func joinIDs(t *testing.T, i *Instance, rels ...string) (*Instance, *refResult, error) {
	t.Helper()
	attrs := []string{"none"} // the target of a composition that fails
	for k, name := range rels {
		if tab := i.Table(name); tab != nil {
			if k == 0 {
				attrs = attrs[:0]
			}
			for _, a := range tab.rel.Attrs {
				if !slices.Contains(attrs, a) {
					attrs = append(attrs, a)
				}
			}
		}
	}
	s := NewSchema()
	s.MustAddRelation("joined", attrs...)
	tr := NewTranslation(i, s)
	err := tr.Compose("joined", rels...)
	want, wantErr := refJoinRelations(i, rels...)
	sameError(t, "join", err, wantErr)
	if err != nil {
		return nil, nil, err
	}
	got := refTable(tr.Output().Table("joined"))
	sameResult(t, "join", got, want)
	return tr.Output(), got, nil
}

// projectIDs projects relation rel of i onto attrs in the store's id space
// into a new instance's relation "proj". It checks the result against
// refProject and returns the instance and its tuples.
func projectIDs(t *testing.T, i *Instance, rel string, attrs ...string) (*Instance, *refResult, error) {
	t.Helper()
	s := NewSchema()
	s.MustAddRelation("proj", attrs...)
	tr := NewTranslation(i, s)
	err := tr.Project(rel, "proj")
	want, wantErr := refProject(refTable(i.Table(rel)), attrs)
	sameError(t, "projection", err, wantErr)
	if err != nil {
		return nil, nil, err
	}
	got := refTable(tr.Output().Table("proj"))
	sameResult(t, "projection", got, want)
	return tr.Output(), got, nil
}

func TestNaturalJoinBasic(t *testing.T) {
	i := smallInstance(t)
	// student ⋈ inPhase ⋈ yearsInProgram — the 4NF composition.
	_, res, err := joinIDs(t, i, "student", "inPhase", "yearsInProgram")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) != 3 || res.Attrs[0] != "stud" || res.Attrs[1] != "phase" || res.Attrs[2] != "years" {
		t.Fatalf("attrs = %v", res.Attrs)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("tuples = %v", res.Tuples)
	}
	want := map[string]bool{"abe\x00prelim\x002": true, "bea\x00post_generals\x005": true}
	for _, tp := range res.Tuples {
		if !want[tkey(tp)] {
			t.Errorf("unexpected tuple %v", tp)
		}
	}
}

func TestNaturalJoinRejectsCartesian(t *testing.T) {
	i := smallInstance(t)
	if _, _, err := joinIDs(t, i, "student", "professor"); err == nil {
		t.Error("join without shared attributes must fail")
	}
	if _, _, err := joinIDs(t, i); err == nil {
		t.Error("empty join must fail")
	}
	if _, _, err := joinIDs(t, i, "ghost"); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, _, err := joinIDs(t, i, "student", "ghost"); err == nil {
		t.Error("unknown second relation must fail")
	}
}

func TestNaturalJoinDangling(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation("r", "a", "b")
	s.MustAddRelation("s", "b", "c")
	i := NewInstance(s)
	i.MustInsert("r", "1", "x")
	i.MustInsert("r", "2", "y") // dangling: no s row with b=y
	i.MustInsert("s", "x", "k")
	_, res, err := joinIDs(t, i, "r", "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || tkey(res.Tuples[0]) != "1\x00x\x00k" {
		t.Errorf("join = %v", res.Tuples)
	}
}

func TestNaturalJoinMultiMatch(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation("r", "a", "b")
	s.MustAddRelation("s", "b", "c")
	i := NewInstance(s)
	i.MustInsert("r", "1", "x")
	i.MustInsert("s", "x", "k1")
	i.MustInsert("s", "x", "k2")
	_, res, err := joinIDs(t, i, "r", "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Errorf("join = %v", res.Tuples)
	}
}

func TestProject(t *testing.T) {
	i := smallInstance(t)
	joined, _, err := joinIDs(t, i, "student", "inPhase")
	if err != nil {
		t.Fatal(err)
	}
	_, proj, err := projectIDs(t, joined, "joined", "phase")
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Tuples) != 2 { // prelim, post_generals
		t.Errorf("projection = %v", proj.Tuples)
	}
	// Projection deduplicates.
	i.MustInsert("student", "cal")
	i.MustInsert("inPhase", "cal", "prelim")
	joined, _, _ = joinIDs(t, i, "student", "inPhase")
	_, proj, _ = projectIDs(t, joined, "joined", "phase")
	if len(proj.Tuples) != 2 {
		t.Errorf("dedup failed: %v", proj.Tuples)
	}
	if _, _, err := projectIDs(t, joined, "joined", "ghost"); err == nil {
		t.Error("unknown attribute must fail")
	}
}

func TestProjectReorders(t *testing.T) {
	i := smallInstance(t)
	joined, _, _ := joinIDs(t, i, "student", "inPhase")
	_, proj, err := projectIDs(t, joined, "joined", "phase", "stud")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Attrs[0] != "phase" || proj.Attrs[1] != "stud" {
		t.Errorf("attrs = %v", proj.Attrs)
	}
	for _, tp := range proj.Tuples {
		if tp[0] != "prelim" && tp[0] != "post_generals" {
			t.Errorf("column order wrong: %v", tp)
		}
	}
}

func TestLosslessJoinRoundTrip(t *testing.T) {
	// Decompose student(stud,phase,years) into three relations and join
	// back: the identity on consistent instances (Definition 4.1).
	s := NewSchema()
	s.MustAddRelation("student4nf", "stud", "phase", "years")
	i := NewInstance(s)
	i.MustInsert("student4nf", "abe", "prelim", "2")
	i.MustInsert("student4nf", "bea", "post_generals", "5")

	parts := NewSchema()
	parts.MustAddRelation("p1", "stud")
	parts.MustAddRelation("p2", "stud", "phase")
	parts.MustAddRelation("p3", "stud", "years")
	split := NewTranslation(i, parts)
	for _, p := range parts.Relations() {
		if err := split.Project("student4nf", p.Name); err != nil {
			t.Fatal(err)
		}
	}
	j, _, err := joinIDs(t, split.Output(), "p1", "p2", "p3")
	if err != nil {
		t.Fatal(err)
	}
	_, back, err := projectIDs(t, j, "joined", "stud", "phase", "years")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tuples) != 2 {
		t.Fatalf("round trip = %v", back.Tuples)
	}
	for _, tp := range back.Tuples {
		if !i.Table("student4nf").Contains(tp) {
			t.Errorf("tuple %v lost or invented", tp)
		}
	}
}

// TestTranslationCopy: a copied table holds the source's rows in order,
// answers membership, and interns the symbols in the order its rows first
// hold them; the translation reuses an id once given. A copy into a table
// with rows, or one of a different arity, fails.
func TestTranslationCopy(t *testing.T) {
	i := smallInstance(t)
	tr := NewTranslation(i, i.Schema())
	for _, rel := range []string{"publication", "inPhase"} {
		if err := tr.Copy(rel); err != nil {
			t.Fatal(err)
		}
	}
	out := tr.Output()
	sameResult(t, "copy", refTable(out.Table("publication")), refTable(i.Table("publication")))
	sameResult(t, "copy", refTable(out.Table("inPhase")), refTable(i.Table("inPhase")))
	var names []string
	for id := range out.Symbols().Len() {
		names = append(names, out.Symbols().Name(int32(id)))
	}
	if want := []string{"t1", "abe", "pat", "t2", "bea", "prelim", "post_generals"}; !slices.Equal(names, want) {
		t.Errorf("symbol order %v, want %v", names, want)
	}
	if !out.Table("publication").Contains(Tuple{"t1", "pat"}) || out.Table("publication").Contains(Tuple{"t2", "pat"}) {
		t.Error("copied table answers membership wrongly")
	}
	if out.Insert("publication", "t2", "bea") != nil || out.Table("publication").Len() != 3 {
		t.Error("copied table took a duplicate row")
	}
	if err := tr.Copy("inPhase"); err == nil {
		t.Error("copy into a table with rows must fail")
	}
	s := NewSchema()
	s.MustAddRelation("inPhase", "stud")
	if err := NewTranslation(i, s).Copy("inPhase"); err == nil {
		t.Error("copy into a table of another arity must fail")
	}
}

func TestPairwiseConsistent(t *testing.T) {
	i := smallInstance(t)
	ok, err := i.PairwiseConsistent("student", "inPhase", "yearsInProgram")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("balanced instance should be pairwise consistent")
	}
	i.MustInsert("student", "cal") // dangling
	ok, err = i.PairwiseConsistent("student", "inPhase", "yearsInProgram")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("dangling tuple should break pairwise consistency")
	}
	if _, err := i.PairwiseConsistent("student", "ghost"); err == nil {
		t.Error("unknown relation must fail")
	}
}
