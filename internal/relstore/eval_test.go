package relstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
)

// satisfiable reports whether the body maps into the instance: whether
// its clause under the nullary head x covers the example x.
func satisfiable(i *Instance, body []logic.Atom) bool {
	return i.CoversExample(&logic.Clause{Head: logic.NewAtom("x"), Body: body}, logic.NewAtom("x"))
}

func TestSatisfyBody(t *testing.T) {
	i := smallInstance(t)
	tests := []struct {
		body string
		want bool
	}{
		{"x :- student(X).", true},
		{"x :- student(X), inPhase(X, prelim).", true},
		{"x :- student(X), inPhase(X, quals).", false},
		{"x :- publication(P, X), publication(P, Y), professor(Y).", true}, // abe & pat share t1
		{"x :- publication(P, bea), publication(P, pat).", false},
		{"x :- ghost(X).", false},
	}
	for _, tt := range tests {
		c := logic.MustParseClause(tt.body)
		if got := i.CoversExample(c, logic.NewAtom("x")); got != tt.want {
			t.Errorf("CoversExample(%q, x) = %v want %v", tt.body, got, tt.want)
		}
	}
}

// TestSatisfyBodyWithInit: a body variable bound beforehand is a head
// variable the example binds.
func TestSatisfyBodyWithInit(t *testing.T) {
	i := smallInstance(t)
	c := logic.MustParseClause("x(X) :- inPhase(X, P).")
	if !i.CoversExample(c, logic.GroundAtom("x", "abe")) {
		t.Error("abe has a phase")
	}
	if i.CoversExample(c, logic.GroundAtom("x", "ghost")) {
		t.Error("ghost has no phase")
	}
}

func TestSatisfyBodyRepeatedVariable(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation("p", "a", "b")
	i := NewInstance(s)
	i.MustInsert("p", "x", "y")
	body := logic.MustParseClause("t :- p(A, A).").Body
	if satisfiable(i, body) {
		t.Error("p(A,A) must not match p(x,y)")
	}
	i.MustInsert("p", "z", "z")
	if !satisfiable(i, body) {
		t.Error("p(A,A) should match p(z,z)")
	}
}

func TestCoversExample(t *testing.T) {
	i := smallInstance(t)
	// collaborated via co-publication — the paper's Example 3.2.
	c := logic.MustParseClause("collaborated(X,Y) :- publication(P,X), publication(P,Y).")
	if !i.CoversExample(c, logic.GroundAtom("collaborated", "abe", "pat")) {
		t.Error("abe-pat collaboration not covered")
	}
	if i.CoversExample(c, logic.GroundAtom("collaborated", "abe", "bea")) {
		// abe and bea share no publication… but X and Y can both bind to the
		// same person via P; abe-bea have no shared title.
		t.Error("abe-bea should not be covered")
	}
	// Head predicate mismatch.
	if i.CoversExample(c, logic.GroundAtom("other", "abe", "pat")) {
		t.Error("wrong head predicate covered")
	}
	// Repeated head variable.
	c2 := logic.MustParseClause("self(X,X) :- student(X).")
	if !i.CoversExample(c2, logic.GroundAtom("self", "abe", "abe")) {
		t.Error("self(abe,abe) should be covered")
	}
	if i.CoversExample(c2, logic.GroundAtom("self", "abe", "bea")) {
		t.Error("self(abe,bea) must not be covered")
	}
}

func TestEvalClause(t *testing.T) {
	i := smallInstance(t)
	c := logic.MustParseClause("collaborated(X,Y) :- publication(P,X), publication(P,Y).")
	got, err := i.EvalClause(c)
	if err != nil {
		t.Fatal(err)
	}
	// t1 is shared by abe and pat: pairs (abe,abe),(abe,pat),(pat,abe),(pat,pat)
	// t2 only bea: (bea,bea). Total 5 distinct.
	if len(got) != 5 {
		t.Fatalf("EvalClause = %v", got)
	}
	keys := make(map[string]bool)
	for _, a := range got {
		keys[a.Key()] = true
	}
	for _, want := range []string{"collaborated\x00abe\x00pat", "collaborated\x00pat\x00abe", "collaborated\x00bea\x00bea"} {
		if !keys[want] {
			t.Errorf("missing %q", want)
		}
	}
}

func TestEvalClauseUnsafe(t *testing.T) {
	i := smallInstance(t)
	if _, err := i.EvalClause(logic.MustParseClause("t(X,Z) :- student(X).")); err == nil {
		t.Error("unsafe clause must be rejected")
	}
}

func TestEvalDefinition(t *testing.T) {
	i := smallInstance(t)
	d := logic.MustParseDefinition(`
		person(X) :- student(X).
		person(X) :- professor(X).
		person(X) :- student(X).
	`)
	got, err := i.EvalDefinition(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // abe, bea, pat — deduplicated across clauses
		t.Errorf("EvalDefinition = %v", got)
	}
	dBad := logic.MustParseDefinition("t(X,Z) :- student(X).")
	if _, err := i.EvalDefinition(dBad); err == nil {
		t.Error("unsafe definition must be rejected")
	}
}

func TestEvalClauseWithConstants(t *testing.T) {
	i := smallInstance(t)
	c := logic.MustParseClause("senior(X) :- yearsInProgram(X, 5).")
	got, err := i.EvalClause(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Args[0].Name != "bea" {
		t.Errorf("EvalClause = %v", got)
	}
}

func TestEvalArityMismatchAtom(t *testing.T) {
	i := smallInstance(t)
	// student has arity 1; an arity-2 atom over it matches nothing.
	body := []logic.Atom{logic.NewAtom("student", logic.Var("X"), logic.Var("Y"))}
	if satisfiable(i, body) {
		t.Error("arity-mismatched atom matched")
	}
}

func TestEvalEmptyBody(t *testing.T) {
	i := smallInstance(t)
	if !satisfiable(i, nil) {
		t.Error("empty body is trivially satisfied")
	}
}

func BenchmarkCoversExample(b *testing.B) {
	s := NewSchema()
	s.MustAddRelation("publication", "title", "person")
	i := NewInstance(s)
	for k := 0; k < 2000; k++ {
		i.MustInsert("publication", "t"+itoa(k%500), "p"+itoa(k%97))
	}
	c := logic.MustParseClause("collab(X,Y) :- publication(P,X), publication(P,Y).")
	e := logic.GroundAtom("collab", "p3", "p17")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i.CoversExample(c, e)
	}
}

// BenchmarkQueryCovers is BenchmarkCoversExample on the coverage
// engine's path: the clause is compiled once and only the per-example
// test is timed.
func BenchmarkQueryCovers(b *testing.B) {
	s := NewSchema()
	s.MustAddRelation("publication", "title", "person")
	i := NewInstance(s)
	for k := 0; k < 2000; k++ {
		i.MustInsert("publication", "t"+itoa(k%500), "p"+itoa(k%97))
	}
	q := i.Compile(logic.MustParseClause("collab(X,Y) :- publication(P,X), publication(P,Y)."))
	e := logic.GroundAtom("collab", "p3", "p17")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q.Covers(e)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// budgetGraph is a fixed 20-node instance on which the coverage search of
// budgetClause backtracks through a full-table scan and multi-column
// probes before it reaches its first solution; mark holds every third
// node, so searches through it hit atoms no row can match.
func budgetGraph(t testing.TB) *Instance {
	t.Helper()
	s := NewSchema()
	s.MustAddRelation("edge", "src", "dst")
	s.MustAddRelation("lab", "node", "color")
	s.MustAddRelation("tri", "a", "b", "c")
	s.MustAddRelation("mark", "node")
	i := NewInstance(s)
	n := func(k int) string { return "n" + itoa(k%20) }
	colors := []string{"red", "green", "blue"}
	for k := 0; k < 20; k++ {
		i.MustInsert("edge", n(k), n(k*7+3))
		i.MustInsert("edge", n(k), n(k*3+1))
		i.MustInsert("edge", n(k), n(k*9+4))
		i.MustInsert("lab", n(k), colors[(k*k)%3])
		i.MustInsert("tri", n(k), n(k*7+3), n(k*11+5))
		i.MustInsert("tri", n(k), n(k*3+1), n(k+9))
		if k%3 == 0 {
			i.MustInsert("mark", n(k))
		}
	}
	i.Freeze()
	return i
}

const budgetClause = "q(X, C) :- edge(X, Y), edge(Y, Z), lab(Z, C), tri(Y, Z, W), edge(W, V), lab(V, red), " +
	"edge(V, U), tri(U, A, B), lab(B, green), edge(B, X), edge(P, Q), edge(Q, P)."

// TestEvalBudgetFlip pins the search itself, not just its answer: the
// node budget at which coverage of one example flips from false to true,
// the tuples_scanned counter and per-table statistics of each call, and
// eval_budget_exhausted, which counts each call the budget cut off.
// Any change to literal choice, row order, node counting or statistics
// accounting moves one of these numbers.
func TestEvalBudgetFlip(t *testing.T) {
	c := logic.MustParseClause(budgetClause)
	ex := logic.GroundAtom("q", "n18", "green")
	stat := func(lookups, scanned, hits int64) obs.StoreStat {
		return obs.StoreStat{Lookups: lookups, TuplesScanned: scanned, IndexHits: hits}
	}
	full := map[string]obs.StoreStat{"edge": stat(34, 159, 33), "lab": stat(42, 42, 42), "tri": stat(17, 34, 17)}
	for _, tc := range []struct {
		budget    int
		covered   bool
		scanned   int64
		stats     map[string]obs.StoreStat
		exhausted int
	}{
		{1, false, 3, map[string]obs.StoreStat{"edge": stat(1, 3, 1)}, 1},
		{2, false, 5, map[string]obs.StoreStat{"edge": stat(1, 3, 1), "tri": stat(1, 2, 1)}, 1},
		{40, false, 45, map[string]obs.StoreStat{"edge": stat(15, 45, 15), "lab": stat(17, 17, 17), "tri": stat(8, 16, 8)}, 1},
		{93, false, 152, full, 1},
		{94, true, 152, full, 0},
		{0, true, 152, full, 0}, // the default budget
	} {
		i := budgetGraph(t)
		reg := obs.NewRegistry()
		i.SetObs(obs.NewRun(nil, reg))
		i.SetEvalBudget(tc.budget)
		if got := i.CoversExample(c, ex); got != tc.covered {
			t.Errorf("budget %d: covered = %v, want %v", tc.budget, got, tc.covered)
		}
		if got := reg.Get(obs.CTuplesScanned); got != tc.scanned {
			t.Errorf("budget %d: tuples_scanned = %d, want %d", tc.budget, got, tc.scanned)
		}
		if got := reg.Snapshot().Store; !reflect.DeepEqual(got, tc.stats) {
			t.Errorf("budget %d: store stats\n got %v\nwant %v", tc.budget, got, tc.stats)
		}
		if got, want := reg.Get(obs.CEvalBudgetExhausted), int64(tc.exhausted); got != want {
			t.Errorf("budget %d: eval_budget_exhausted = %d, want %d", tc.budget, got, want)
		}
	}

	// Dead branches: once Y binds to an unmarked node, mark(Y) admits no
	// row and the node is abandoned without a probe.
	dead := logic.MustParseClause("r(X) :- edge(X, Y), mark(Y), edge(Y, Z), mark(Z), edge(Z, W), lab(W, green).")
	for _, tc := range []struct {
		node    string
		covered bool
		scanned int64
		stats   map[string]obs.StoreStat
	}{
		{"n1", false, 3, map[string]obs.StoreStat{"edge": stat(1, 3, 1)}},
		{"n9", false, 11, map[string]obs.StoreStat{"edge": stat(3, 9, 3), "lab": stat(3, 3, 3), "mark": stat(2, 2, 2)}},
		{"n5", true, 12, map[string]obs.StoreStat{"edge": stat(3, 9, 3), "lab": stat(2, 2, 2), "mark": stat(2, 2, 2)}},
	} {
		i := budgetGraph(t)
		reg := obs.NewRegistry()
		i.SetObs(obs.NewRun(nil, reg))
		if got := i.CoversExample(dead, logic.GroundAtom("r", tc.node)); got != tc.covered {
			t.Errorf("r(%s): covered = %v, want %v", tc.node, got, tc.covered)
		}
		if got := reg.Get(obs.CTuplesScanned); got != tc.scanned {
			t.Errorf("r(%s): tuples_scanned = %d, want %d", tc.node, got, tc.scanned)
		}
		if got := reg.Snapshot().Store; !reflect.DeepEqual(got, tc.stats) {
			t.Errorf("r(%s): store stats\n got %v\nwant %v", tc.node, got, tc.stats)
		}
		if got := reg.Get(obs.CEvalBudgetExhausted); got != 0 {
			t.Errorf("r(%s): eval_budget_exhausted = %d on a dead branch, want 0", tc.node, got)
		}
	}

	// The first solution and the enumeration order are pinned too.
	i := budgetGraph(t)
	w := i.CoverageWitness(c, ex)
	want := map[string]string{"A": "n11", "B": "n19", "C": "green", "P": "n0", "Q": "n4",
		"U": "n10", "V": "n3", "W": "n11", "X": "n18", "Y": "n6", "Z": "n5"}
	if len(w) != len(want) {
		t.Fatalf("witness %v, want %v", w, want)
	}
	for v, name := range want {
		if got := w[v]; got.IsVar || got.Name != name {
			t.Errorf("witness binds %s to %v, want %s", v, got, name)
		}
	}
	got, err := i.EvalClause(logic.MustParseClause("q(X, C) :- edge(X, Y), edge(Y, Z), lab(Z, C), tri(Y, Z, W)."))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 38 {
		t.Fatalf("EvalClause returned %d atoms, want 38", len(got))
	}
	for k, want := range []string{"q(n3,red)", "q(n4,red)", "q(n10,red)", "q(n1,red)", "q(n4,green)"} {
		if got[k].String() != want {
			t.Errorf("EvalClause result %d = %v, want %s", k, got[k], want)
		}
	}
}

// budgetExamples are q(n, color) over every node and color of
// budgetGraph, plus a color the instance has never seen.
func budgetExamples() []logic.Atom {
	var exs []logic.Atom
	for k := 0; k < 20; k++ {
		for _, col := range []string{"red", "green", "blue", "ghost"} {
			exs = append(exs, logic.GroundAtom("q", "n"+itoa(k), col))
		}
	}
	return exs
}

// TestQueryConcurrentCovers: a compiled query is immutable and every test
// takes its own scratch state, so concurrent tests — the coverage
// engine's worker-pool usage — must agree with the serial answers, and
// the per-call statistics flushes must add up exactly. Run under -race
// this is the safety check for sharing one compiled query across the pool.
func TestQueryConcurrentCovers(t *testing.T) {
	i := budgetGraph(t)
	reg := obs.NewRegistry()
	i.SetObs(obs.NewRun(nil, reg))
	q := i.Compile(logic.MustParseClause(budgetClause))
	exs := budgetExamples()
	want := make([]bool, len(exs))
	covered := 0
	for k, e := range exs {
		if want[k] = q.Covers(e); want[k] {
			covered++
		}
	}
	if covered == 0 || covered == len(exs) {
		t.Fatalf("fixture covers %d of %d examples, want a mix", covered, len(exs))
	}
	serial := reg.Snapshot().Store

	const workers, rounds = 8, 10
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range exs {
					k := (k + 7*w) % len(exs) // each worker starts elsewhere
					if got := q.Covers(exs[k]); got != want[k] {
						errs <- fmt.Sprintf("worker %d: Covers(%v) = %v, want %v", w, exs[k], got, want[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	const passes = 1 + workers*rounds
	for name, s := range reg.Snapshot().Store {
		one := serial[name]
		if s.Lookups != passes*one.Lookups || s.TuplesScanned != passes*one.TuplesScanned || s.IndexHits != passes*one.IndexHits {
			t.Errorf("%s: stats %+v after %d passes of %+v", name, s, passes, one)
		}
	}
}

// TestQueryCoversZeroAlloc pins the steady-state coverage test at zero
// allocations on a frozen instance, whether the example is covered, not
// covered, or carries a constant the instance has never seen, and so the
// masked test of a sub-clause on a held prober, for a mask that keeps a
// prefix and one that keeps every other atom.
func TestQueryCoversZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	i := budgetGraph(t)
	i.SetObs(obs.NewRun(nil, obs.NewRegistry()))
	c := logic.MustParseClause(budgetClause)
	q := i.Compile(c)
	p := i.NewProber()
	prefix, alternate := make([]bool, len(c.Body)), make([]bool, len(c.Body))
	for k := range c.Body {
		prefix[k], alternate[k] = k < 6, k%2 == 0
	}
	for _, tc := range []struct {
		e    logic.Atom
		want bool
	}{
		{logic.GroundAtom("q", "n18", "green"), true},
		{logic.GroundAtom("q", "n0", "red"), false},
		{logic.GroundAtom("q", "n4", "ghost"), false},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if q.Covers(tc.e) != tc.want {
				t.Fatalf("Covers(%v) != %v", tc.e, tc.want)
			}
		}); n != 0 {
			t.Errorf("Covers(%v) allocates %.1f per test, want 0", tc.e, n)
		}
		for _, keep := range [][]bool{prefix, alternate} {
			sub := c.Keep(keep)
			want := i.Compile(sub).Covers(tc.e)
			if n := testing.AllocsPerRun(100, func() {
				if q.CoversMask(p, tc.e, nil, keep) != want {
					t.Fatalf("CoversMask(%v) on %v != %v", tc.e, sub, want)
				}
			}); n != 0 {
				t.Errorf("CoversMask(%v) on %v allocates %.1f per test, want 0", tc.e, sub, n)
			}
		}
	}
}
