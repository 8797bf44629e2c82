package relstore

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
)

func TestStoreStatsCountProbes(t *testing.T) {
	i := smallInstance(t)
	pub := i.Table("publication")
	reg := obs.NewRegistry()
	run := obs.NewRun(nil, reg)
	tl := i.NewTally()
	published := func() obs.StoreStat { return reg.Snapshot().Store["publication"] }
	id := func(name string) int32 {
		v, ok := i.Symbols().Lookup(name)
		if !ok {
			t.Fatalf("no symbol %q", name)
		}
		return v
	}

	if got := reg.Snapshot().Store; got != nil {
		t.Fatalf("fresh registry has store stats %v", got)
	}
	// One indexed point lookup: t1 has two publication tuples.
	if rows := pub.AppendRowsWith(nil, []int{0}, []int32{id("t1")}, tl); len(rows) != 2 {
		t.Fatalf("rows with title=t1: %v", rows)
	}
	tl.Publish(run)
	s := published()
	if s.Lookups != 1 || s.IndexHits != 1 || s.TuplesScanned != 2 {
		t.Errorf("after point lookup: %+v", s)
	}
	// An unconstrained fetch scans the whole table.
	pub.AppendRowsWith(nil, nil, nil, tl)
	tl.Publish(run)
	s = published()
	if s.Lookups != 2 || s.TuplesScanned != 2+3 {
		t.Errorf("after full fetch: %+v", s)
	}
	// A fetch by value in any column is one indexed lookup more (the full
	// fetch above bypassed the index, so hits lag lookups by one).
	pub.AppendRowsContaining(nil, id("abe"), tl)
	tl.Publish(run)
	s = published()
	if s.Lookups != 3 || s.IndexHits != 2 {
		t.Errorf("after a fetch by value: %+v", s)
	}
	tl.AddINDExpansions(pub, 4)
	if got := published(); got != s {
		t.Errorf("tally published before Publish: %+v", got)
	}
	tl.Publish(run)
	if s = published(); s.INDExpansions != 4 {
		t.Errorf("AddINDExpansions not recorded: %+v", s)
	}
	tl.Publish(run)
	if got := published(); got != s {
		t.Errorf("second Publish republished: %+v", got)
	}

	// The registry's section holds only probed relations.
	snap := reg.Snapshot().Store
	if len(snap) != 1 {
		t.Fatalf("store section = %v, want only publication", snap)
	}
	if snap["publication"] != s {
		t.Errorf("snapshot %+v != published stats %+v", snap["publication"], s)
	}
	// One-off fetches count nothing, and a tally published into a run
	// without a registry drops its counts.
	pub.TuplesWith(nil)
	pub.TuplesContaining("abe")
	tl.AddINDExpansions(pub, 1)
	tl.Publish(nil)
	tl.Publish(run)
	if got := reg.Snapshot().Store; !reflect.DeepEqual(got, snap) {
		t.Errorf("stats survive a publish without a registry, or one-off fetches counted: %v, want %v", got, snap)
	}
}

func TestStoreStatsUnindexedScans(t *testing.T) {
	s := uwcseOriginal(t)
	i := NewUnindexedInstance(s)
	i.MustInsert("publication", "t1", "abe")
	i.MustInsert("publication", "t2", "bea")
	pub := i.Table("publication")
	abe, _ := i.Symbols().Lookup("abe")
	tl := i.NewTally()
	pub.AppendRowsContaining(nil, abe, tl)
	reg := obs.NewRegistry()
	tl.Publish(obs.NewRun(nil, reg))
	st := reg.Snapshot().Store["publication"]
	if st.IndexHits != 0 {
		t.Errorf("unindexed table reported index hits: %+v", st)
	}
	if st.TuplesScanned != 2*2 { // full scan per column
		t.Errorf("unindexed fetch by value scanned %d, want 4", st.TuplesScanned)
	}
}

func TestStoreStatsFlowThroughEval(t *testing.T) {
	i := smallInstance(t)
	reg := obs.NewRegistry()
	i.SetObs(obs.NewRun(nil, reg))
	c := logic.MustParseClause("collab(X, Y) :- publication(P, X), publication(P, Y), professor(Y).")
	if !i.CoversExample(c, logic.GroundAtom("collab", "abe", "pat")) {
		t.Fatal("abe/pat must collaborate")
	}
	snap := reg.Snapshot().Store
	if snap["publication"].Lookups == 0 || snap["publication"].TuplesScanned == 0 {
		t.Errorf("evaluation left no publication stats: %v", snap)
	}
	if snap["professor"].Lookups == 0 {
		t.Errorf("evaluation left no professor stats: %v", snap)
	}
}

func TestCoverageWitness(t *testing.T) {
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
	// The witness exists exactly when the clause covers the example, on
	// eval_test fixture queries under the nullary head x.
	for _, src := range []string{
		"x :- student(X), inPhase(X, prelim).",
		"x :- student(X), inPhase(X, quals).",
		"x :- publication(P, bea), publication(P, pat).",
		"x :- ghost(Z).",
	} {
		c := logic.MustParseClause(src)
		x := logic.NewAtom("x")
		if got, want := i.CoverageWitness(c, x) != nil, i.CoversExample(c, x); got != want {
			t.Errorf("CoverageWitness(%q) found=%v, CoversExample=%v", src, got, want)
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
	// The same two fetches through a tally.
	tl := i.NewTally()
	k3, _ := i.Symbols().Lookup("k3")
	big.AppendRowsWith(nil, []int{0}, []int32{k3}, tl)
	big.AppendRowsWith(nil, nil, nil, tl)
	reg := obs.NewRegistry()
	tl.Publish(obs.NewRun(nil, reg))
	wantScanned := int64(len(point)) + int64(rows)
	if got := reg.Snapshot().Store["big"]; got.Lookups != 2 || got.IndexHits != 1 || got.TuplesScanned != wantScanned {
		t.Errorf("scan stats = %+v, want lookups 2, hits 1, scanned %d", got, wantScanned)
	}
}

// TestProberPublishesOnce: tests on a worker's prober leave the run
// untouched until Publish, which then adds exactly what the same tests
// through the one-off Covers add. A nil prober publishes nothing.
func TestProberPublishesOnce(t *testing.T) {
	c := logic.MustParseClause("collab(X, Y) :- publication(P, X), publication(P, Y), professor(Y).")
	examples := []logic.Atom{
		logic.GroundAtom("collab", "abe", "pat"),
		logic.GroundAtom("collab", "abe", "ghost"),
		logic.GroundAtom("collab", "bea", "abe"),
	}
	oneOff, held := smallInstance(t), smallInstance(t)
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	oneOff.SetObs(obs.NewRun(nil, regA))
	held.SetObs(obs.NewRun(nil, regB))
	qa, qb := oneOff.Compile(c), held.Compile(c)
	p := held.NewProber()
	for _, e := range examples {
		if qa.Covers(e) != qb.CoversWith(p, e) {
			t.Fatalf("Covers and CoversWith disagree on %v", e)
		}
	}
	if got := regB.Snapshot().Store; len(got) != 0 {
		t.Fatalf("prober published before Publish: %v", got)
	}
	if got := regB.Get(obs.CTuplesScanned); got != 0 {
		t.Fatalf("tuples_scanned %d before Publish", got)
	}
	p.Publish()
	if a, b := regA.Snapshot().Store, regB.Snapshot().Store; !reflect.DeepEqual(a, b) {
		t.Errorf("published stats %v, one-off %v", b, a)
	}
	if a, b := regA.Get(obs.CTuplesScanned), regB.Get(obs.CTuplesScanned); a != b || a == 0 {
		t.Errorf("tuples_scanned published %d, one-off %d", b, a)
	}
	p.Publish()
	(*Prober)(nil).Publish()
	if a, b := regA.Snapshot().Store, regB.Snapshot().Store; !reflect.DeepEqual(a, b) {
		t.Errorf("second Publish changed the stats: %v, want %v", b, a)
	}
}
