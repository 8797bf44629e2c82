package relstore

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
)

func TestStoreStatsCountProbes(t *testing.T) {
	i := smallInstance(t)
	pub := i.Table("publication")

	if got := pub.Stats(); got != (obs.StoreStat{}) {
		t.Fatalf("fresh table has stats %+v", got)
	}
	// One indexed point lookup: t1 has two publication tuples.
	out := pub.TuplesWith(map[int]string{0: "t1"})
	if len(out) != 2 {
		t.Fatalf("TuplesWith(title=t1) = %v", out)
	}
	s := pub.Stats()
	if s.Lookups != 1 || s.IndexHits != 1 || s.TuplesScanned != 2 {
		t.Errorf("after point lookup: %+v", s)
	}
	// An unconstrained fetch scans the whole table.
	pub.TuplesWith(nil)
	s = pub.Stats()
	if s.Lookups != 2 || s.TuplesScanned != 2+3 {
		t.Errorf("after full fetch: %+v", s)
	}
	// TuplesContaining is one indexed lookup more (the full fetch above
	// bypassed the index, so hits lag lookups by one).
	pub.TuplesContaining("abe")
	s = pub.Stats()
	if s.Lookups != 3 || s.IndexHits != 2 {
		t.Errorf("after TuplesContaining: %+v", s)
	}
	pub.AddINDExpansions(4)
	if s = pub.Stats(); s.INDExpansions != 4 {
		t.Errorf("AddINDExpansions not recorded: %+v", s)
	}

	// Instance snapshot holds only probed relations.
	snap := i.StoreStats()
	if len(snap) != 1 {
		t.Fatalf("StoreStats = %v, want only publication", snap)
	}
	if snap["publication"] != s {
		t.Errorf("snapshot %+v != table stats %+v", snap["publication"], s)
	}
	i.ResetStoreStats()
	if got := i.StoreStats(); len(got) != 0 {
		t.Errorf("stats survive reset: %v", got)
	}
}

func TestStoreStatsUnindexedScans(t *testing.T) {
	s := uwcseOriginal(t)
	i := NewUnindexedInstance(s)
	i.MustInsert("publication", "t1", "abe")
	i.MustInsert("publication", "t2", "bea")
	pub := i.Table("publication")
	pub.TuplesContaining("abe")
	st := pub.Stats()
	if st.IndexHits != 0 {
		t.Errorf("unindexed table reported index hits: %+v", st)
	}
	if st.TuplesScanned != 2*2 { // full scan per column
		t.Errorf("unindexed TuplesContaining scanned %d, want 4", st.TuplesScanned)
	}
}

func TestStoreStatsFlowThroughEval(t *testing.T) {
	i := smallInstance(t)
	c := logic.MustParseClause("collab(X, Y) :- publication(P, X), publication(P, Y), professor(Y).")
	if !i.CoversExample(c, logic.GroundAtom("collab", "abe", "pat")) {
		t.Fatal("abe/pat must collaborate")
	}
	snap := i.StoreStats()
	if snap["publication"].Lookups == 0 || snap["publication"].TuplesScanned == 0 {
		t.Errorf("evaluation left no publication stats: %v", snap)
	}
	if snap["professor"].Lookups == 0 {
		t.Errorf("evaluation left no professor stats: %v", snap)
	}
}

func TestWitnessBodyAndCoverageWitness(t *testing.T) {
	i := smallInstance(t)
	c := logic.MustParseClause("collab(X, Y) :- publication(P, X), publication(P, Y), professor(Y).")

	w := i.CoverageWitness(c, logic.GroundAtom("collab", "abe", "pat"))
	if w == nil {
		t.Fatal("covered example has no witness")
	}
	// The witness must ground the whole clause into true facts.
	for _, want := range []struct{ v, c string }{{"X", "abe"}, {"Y", "pat"}, {"P", "t1"}} {
		r := w.Resolve(logic.Var(want.v))
		if r.IsVar || r.Name != want.c {
			t.Errorf("witness binds %s to %v, want %s (witness %v)", want.v, r, want.c, w)
		}
	}
	for _, a := range c.Body {
		g := a.Apply(w)
		if !g.IsGround() {
			t.Fatalf("witness leaves %v unground", g)
		}
		if !i.Table(g.Pred).Contains(Tuple(atomValues(g))) {
			t.Errorf("witness atom %v not in instance", g)
		}
	}

	if w := i.CoverageWitness(c, logic.GroundAtom("collab", "bea", "pat")); w != nil {
		t.Errorf("uncovered example got witness %v", w)
	}
	if w := i.WitnessBody(c.Body, nil); w == nil {
		t.Error("satisfiable body has no witness")
	}
	if w := i.WitnessBody(logic.MustParseClause("x :- ghost(Z).").Body, nil); w != nil {
		t.Errorf("unsatisfiable body got witness %v", w)
	}
	// WitnessBody agrees with SatisfyBody on every eval_test fixture query.
	for _, body := range []string{
		"x :- student(X), inPhase(X, prelim).",
		"x :- student(X), inPhase(X, quals).",
		"x :- publication(P, bea), publication(P, pat).",
	} {
		b := logic.MustParseClause(body).Body
		if got, want := i.WitnessBody(b, nil) != nil, i.SatisfyBody(b, nil); got != want {
			t.Errorf("WitnessBody(%q) found=%v, SatisfyBody=%v", body, got, want)
		}
	}
}

func atomValues(a logic.Atom) []string {
	out := make([]string, len(a.Args))
	for i, t := range a.Args {
		out[i] = t.Name
	}
	return out
}

func TestPlanExplain(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation("bonds", "b", "a1", "a2")
	s.MustAddRelation("bSource", "b", "a1")
	s.MustAddRelation("bTarget", "b", "a2")
	s.MustAddIND("bSource", []string{"b"}, "bTarget", []string{"b"}, true)
	p := CompilePlan(s, false)

	text := p.Explain()
	for _, want := range []string{
		"3 relations, 1 INDs, 1 inclusion classes",
		"class 0: bSource, bTarget",
		"bonds(b,a1,a2)",
		"no IND hops: frontier scan only",
		"chase bTarget via bSource[b] = bTarget[b]",
		"chase bSource via bSource[b] = bTarget[b]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
	// Deterministic rendering.
	if p.Explain() != text {
		t.Error("Explain is not deterministic")
	}
}

// TestStatsShardedScanPath pins the statistics contract on a table above
// 32,768 rows, the size at which scans once fanned out: a point scan and a
// full fetch return rows in insertion order and count exactly one lookup
// each, one index hit for the bound column and every row they read.
func TestStatsShardedScanPath(t *testing.T) {
	const rows = 1<<15 + 1<<14
	s := NewSchema()
	s.MustAddRelation("big", "k", "v")
	i := NewInstance(s)
	for r := 0; r < rows; r++ {
		i.MustInsert("big", "k"+strconv.Itoa(r%7), "v"+strconv.Itoa(r))
	}
	i.Freeze()
	big := i.Table("big")

	point := big.TuplesWith(map[int]string{0: "k3"})
	if len(point) != (rows-3+6)/7 {
		t.Fatalf("point scan returned %d rows, want %d", len(point), (rows-3+6)/7)
	}
	for n, tp := range point {
		if want := "v" + strconv.Itoa(3+7*n); tp[0] != "k3" || tp[1] != want {
			t.Fatalf("point scan row %d = %v, want [k3 %s]", n, tp, want)
		}
	}
	all := big.TuplesWith(nil)
	if len(all) != rows {
		t.Fatalf("full fetch returned %d rows, want %d", len(all), rows)
	}
	for r, tp := range all {
		if tp[1] != "v"+strconv.Itoa(r) {
			t.Fatalf("full fetch row %d = %v, out of insertion order", r, tp)
		}
	}
	wantScanned := int64(len(point)) + int64(rows)
	if got := big.Stats(); got.Lookups != 2 || got.IndexHits != 1 || got.TuplesScanned != wantScanned {
		t.Errorf("scan stats = %+v, want lookups 2, hits 1, scanned %d", got, wantScanned)
	}
}
