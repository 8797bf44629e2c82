package relstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/logic"
)

// TestLegacyColumnarEquivalence: the columnar store and the legacy map
// store return identical results — same tuples, same order — for every
// query primitive, for joins, and for body evaluation (against a
// brute-force grounding oracle over the legacy store), on randomized
// instances.
func TestLegacyColumnarEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	vals := []string{"v0", "v1", "v2", "v3", "v4"}
	queryVals := append([]string{"v9"}, vals...) // include a never-inserted value
	for trial := 0; trial < 120; trial++ {
		s := NewSchema()
		s.MustAddRelation("p", "a", "b")
		s.MustAddRelation("q", "b", "c")
		s.MustAddRelation("w", "a", "b", "c")
		col := NewInstance(s)
		leg := NewLegacyInstance(s)
		insert := func(rel string, arity int) {
			tp := make([]string, arity)
			for i := range tp {
				tp[i] = vals[r.Intn(len(vals))]
			}
			col.MustInsert(rel, tp...)
			leg.MustInsert(rel, tp...)
		}
		for i := 0; i < 5+r.Intn(20); i++ {
			insert("p", 2)
		}
		for i := 0; i < 5+r.Intn(20); i++ {
			insert("q", 2)
		}
		for i := 0; i < 5+r.Intn(20); i++ {
			insert("w", 3)
		}
		if trial%2 == 0 {
			col.Freeze() // half the trials probe frozen, half freeze lazily
		}

		for _, rel := range []string{"p", "q", "w"} {
			ct, lt := col.Table(rel), leg.Table(rel)
			arity := ct.Relation().Arity()
			// Random requirements of every bound-column count.
			for probe := 0; probe < 20; probe++ {
				req := map[int]string{}
				for c := 0; c < arity; c++ {
					if r.Intn(2) == 0 {
						req[c] = queryVals[r.Intn(len(queryVals))]
					}
				}
				x, y := ct.TuplesWith(req), lt.TuplesWith(req)
				if len(x) != len(y) {
					t.Fatalf("%s TuplesWith(%v): columnar %v legacy %v", rel, req, x, y)
				}
				for i := range x {
					if !x[i].Equal(y[i]) {
						t.Fatalf("%s TuplesWith(%v) order: columnar %v legacy %v", rel, req, x, y)
					}
				}
			}
			for _, v := range queryVals {
				x, y := ct.TuplesContaining(v), lt.TuplesContaining(v)
				if len(x) != len(y) {
					t.Fatalf("%s TuplesContaining(%s): columnar %v legacy %v", rel, v, x, y)
				}
				for i := range x {
					if !x[i].Equal(y[i]) {
						t.Fatalf("%s TuplesContaining(%s) order: %v vs %v", rel, v, x, y)
					}
				}
			}
			// Contains agrees on present and absent tuples.
			for probe := 0; probe < 20; probe++ {
				tp := make(Tuple, arity)
				for i := range tp {
					tp[i] = queryVals[r.Intn(len(queryVals))]
				}
				if ct.Contains(tp) != lt.Contains(tp) {
					t.Fatalf("%s Contains(%v): columnar %v legacy %v", rel, tp, ct.Contains(tp), lt.Contains(tp))
				}
			}
		}

		// The id-space join over the columnar tables' postings equals the
		// string-tuple join over the legacy tuple slices, order included.
		_, cj, err := joinIDs(t, col, "p", "q")
		if err != nil {
			t.Fatal(err)
		}
		lj, err := refJoin(
			&refResult{Attrs: []string{"a", "b"}, Tuples: leg.Table("p").Tuples()},
			&refResult{Attrs: []string{"b", "c"}, Tuples: leg.Table("q").Tuples()})
		if err != nil {
			t.Fatal(err)
		}
		if len(cj.Tuples) != len(lj.Tuples) {
			t.Fatalf("join size: columnar %d legacy %d", len(cj.Tuples), len(lj.Tuples))
		}
		for i := range cj.Tuples {
			if !cj.Tuples[i].Equal(lj.Tuples[i]) {
				t.Fatalf("join row %d: columnar %v legacy %v", i, cj.Tuples[i], lj.Tuples[i])
			}
		}

		// Body satisfaction agrees with brute-force grounding over the
		// legacy store's Contains.
		body := randEquivBody(r)
		got := satisfiable(col, body)
		want := naiveSatisfy(leg, body, vals)
		if got != want {
			t.Fatalf("satisfiable=%v naive(legacy)=%v for %v", got, want, body)
		}
	}
}

func randEquivBody(r *rand.Rand) []logic.Atom {
	varsPool := []logic.Term{logic.Var("X"), logic.Var("Y"), logic.Var("Z")}
	valPool := []string{"v0", "v1", "v2", "v3"}
	n := 1 + r.Intn(3)
	out := make([]logic.Atom, n)
	for i := range out {
		pred, arity := "p", 2
		switch r.Intn(3) {
		case 1:
			pred = "q"
		case 2:
			pred, arity = "w", 3
		}
		args := make([]logic.Term, arity)
		for j := range args {
			if r.Intn(3) == 0 {
				args[j] = logic.Const(valPool[r.Intn(len(valPool))])
			} else {
				args[j] = varsPool[r.Intn(len(varsPool))]
			}
		}
		out[i] = logic.NewAtom(pred, args...)
	}
	return out
}

func naiveSatisfy(leg *LegacyInstance, body []logic.Atom, valPool []string) bool {
	for _, x := range valPool {
		for _, y := range valPool {
			for _, z := range valPool {
				s := logic.NewSubstitution()
				s.Bind("X", logic.Const(x))
				s.Bind("Y", logic.Const(y))
				s.Bind("Z", logic.Const(z))
				ok := true
				for _, a := range body {
					g := a.Apply(s)
					vals := make([]string, g.Arity())
					for i, t := range g.Args {
						vals[i] = t.Name
					}
					if !leg.Table(g.Pred).Contains(vals) {
						ok = false
						break
					}
				}
				if ok {
					return true
				}
			}
		}
	}
	return false
}

// TestFrozenProbesZeroAlloc pins the zero-allocation probe guarantee: on a
// frozen store, Contains and MatchingIndexes allocate nothing per call —
// the strings.Join dedupe key of the old store is gone.
func TestFrozenProbesZeroAlloc(t *testing.T) {
	i := smallInstance(t)
	i.Freeze()
	pub := i.Table("publication")
	present, absent := Tuple{"t1", "abe"}, Tuple{"t1", "ghost"}
	if n := testing.AllocsPerRun(200, func() {
		if !pub.Contains(present) || pub.Contains(absent) {
			t.Fatal("Contains wrong")
		}
	}); n != 0 {
		t.Errorf("Contains allocates %.1f per probe, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if len(pub.MatchingIndexes(0, "t1")) != 2 {
			t.Fatal("MatchingIndexes wrong")
		}
	}); n != 0 {
		t.Errorf("MatchingIndexes allocates %.1f per probe, want 0", n)
	}
	// The interned point probe of the solver path borrows the CSR posting
	// slice, so it is allocation-free too.
	t1 := pub.lookupVal("t1")
	if n := testing.AllocsPerRun(200, func() {
		if len(pub.matchingRows(0, t1)) != 2 {
			t.Fatal("matchingRows wrong")
		}
	}); n != 0 {
		t.Errorf("matchingRows point probe allocates %.1f per call, want 0", n)
	}
}

// TestRowInternExternRoundTrip feeds the parser fuzz corpora through the
// store: every ground atom's values insert, intern and materialize back
// byte-identical — quoting, escapes and empty constants included.
func TestRowInternExternRoundTrip(t *testing.T) {
	var inputs []string
	for _, dir := range []string{
		"../logic/testdata/fuzz/FuzzParseAtomRoundTrip",
		"../logic/testdata/fuzz/FuzzParseClauseRoundTrip",
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("fuzz corpus missing: %v", err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if !strings.HasPrefix(line, "string(") {
					continue
				}
				s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				inputs = append(inputs, s)
			}
		}
	}
	if len(inputs) == 0 {
		t.Fatal("no corpus inputs")
	}
	// Hand-picked nasty rows on top of the corpora.
	extra := [][]string{
		{"", "a\x00b", " "},
		{"it's", `a\\b`, "ünïcode"},
		{"0", "00", "000"},
	}
	for _, src := range inputs {
		a, err := logic.ParseAtom(src)
		if err != nil || !a.IsGround() || a.Arity() == 0 {
			continue
		}
		vals := make([]string, a.Arity())
		for i, term := range a.Args {
			vals[i] = term.Name
		}
		extra = append(extra, vals)
	}
	for _, vals := range extra {
		s2 := NewSchema()
		attrs := make([]string, len(vals))
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		s2.MustAddRelation("r", attrs...)
		inst := NewInstance(s2)
		inst.MustInsert("r", vals...)
		inst.Freeze()
		tb := inst.Table("r")
		if !tb.Contains(vals) {
			t.Errorf("row %q lost after intern", vals)
		}
		got := tb.Tuples()
		if len(got) != 1 || !got[0].Equal(vals) {
			t.Errorf("row %q externalizes to %q", vals, got)
		}
		roundTrip := false
		tb.ForEachTuple(func(tp Tuple) bool {
			roundTrip = tp.Equal(vals)
			return true
		})
		if !roundTrip {
			t.Errorf("ForEachTuple alters row %q", vals)
		}
	}
}

// checkPostingsAgainstScan probes every column of tb at every id from -1
// to two past the symbol table's end — below the column's lowest id, in
// gaps of its range, above its top id — and compares the postings, their
// counts and AppendRowsContaining with a scan of the stored rows.
func checkPostingsAgainstScan(t *testing.T, tb *Table) {
	t.Helper()
	ar := tb.Relation().Arity()
	for v := int32(-1); int(v) <= tb.syms.Len()+1; v++ {
		var inAny []int32
		for r := 0; r < tb.Len(); r++ {
			if slices.Contains(tb.Row(int32(r)), v) {
				inAny = append(inAny, int32(r))
			}
		}
		for col := 0; col < ar; col++ {
			var want []int32
			for r := 0; r < tb.Len(); r++ {
				if tb.Row(int32(r))[col] == v {
					want = append(want, int32(r))
				}
			}
			if got := tb.matchingRows(col, v); !slices.Equal(got, want) {
				t.Errorf("%s col %d id %d: postings %v, scan %v", tb.Relation().Name, col, v, got, want)
			}
			if got := tb.countMatching(col, v); got != len(want) {
				t.Errorf("%s col %d id %d: count %d, scan %d", tb.Relation().Name, col, v, got, len(want))
			}
		}
		if got := tb.AppendRowsContaining(nil, v, nil); !slices.Equal(got, inAny) {
			t.Errorf("%s id %d: AppendRowsContaining %v, scan %v", tb.Relation().Name, v, got, inAny)
		}
	}
}

// TestPostingsEdgeCases covers the bounds of the direct-addressed postings:
// a column whose lowest id is above 0 because another relation interned
// symbols first, gaps in a column's id range, probes outside the range and
// at -1, an id interned by another table after this one froze, an empty
// table, and a re-freeze after an insert that widens the range.
func TestPostingsEdgeCases(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation("first", "x")
	s.MustAddRelation("r", "a", "b")
	s.MustAddRelation("empty", "a")
	inst := NewInstance(s)
	// ids f0..f2 = 0..2 go to "first"; r interns a1=3, b1=4, a2=5, b2=6,
	// so column a spans [3, 5] with a gap at 4 and column b [4, 6] with a
	// gap at 5.
	for _, v := range []string{"f0", "f1", "f2"} {
		inst.MustInsert("first", v)
	}
	inst.MustInsert("r", "a1", "b1")
	inst.MustInsert("r", "a2", "b1")
	inst.MustInsert("r", "a1", "b2")
	inst.Freeze()
	r, empty := inst.Table("r"), inst.Table("empty")
	if lo := r.cols[0].lo; lo != 3 {
		t.Fatalf("column a starts at id %d, want 3", lo)
	}
	checkPostingsAgainstScan(t, r)
	checkPostingsAgainstScan(t, empty)
	if got := r.TuplesWith(map[int]string{0: "a1"}); len(got) != 2 || !got[0].Equal(Tuple{"a1", "b1"}) || !got[1].Equal(Tuple{"a1", "b2"}) {
		t.Errorf("TuplesWith(a=a1) = %v", got)
	}
	if got := empty.TuplesWith(map[int]string{0: "a1"}); got != nil {
		t.Errorf("empty table TuplesWith = %v", got)
	}

	// Another table interns a new id; r stays frozen and must answer
	// nothing for it rather than read past its offsets.
	inst.MustInsert("first", "late")
	if !r.frozen.Load() {
		t.Fatal("insert into another table thawed r")
	}
	late := r.lookupVal("late")
	for col := 0; col < 2; col++ {
		if got := r.MatchingIndexes(col, "late"); len(got) != 0 {
			t.Errorf("col %d: id interned after freeze matches %v", col, got)
		}
	}
	if got := r.AppendRowsContaining(nil, late, nil); len(got) != 0 {
		t.Errorf("id interned after freeze is contained in %v", got)
	}
	checkPostingsAgainstScan(t, r)

	// Widen both columns' ranges: f0 lies below column a's lowest id, and
	// "wide" is a new id above every column's top. The insert thaws r, and
	// the next probe rebuilds the postings over the wider range.
	inst.MustInsert("r", "f0", "wide")
	inst.MustInsert("r", "a2", "late")
	if r.frozen.Load() {
		t.Fatal("insert did not thaw r")
	}
	checkPostingsAgainstScan(t, r)
	if lo := r.cols[0].lo; lo != 0 {
		t.Errorf("re-frozen column a starts at id %d, want 0", lo)
	}
	if got := r.MatchingIndexes(1, "late"); !slices.Equal(got, []int32{4}) {
		t.Errorf("late after re-freeze: %v, want [4]", got)
	}
}
