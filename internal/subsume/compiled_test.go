package subsume

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
)

// chainPair builds a clause whose body is the chain q(X0,X1)…q(Xn-1,Xn)
// and a ground chain of m constants it maps into, both under the nullary
// head x — a pair that genuinely subsumes but needs at least n search
// nodes to prove it.
func chainPair(n, m int) (c, d *logic.Clause) {
	c, d = headed(nil), headed(nil)
	for i := 0; i < n; i++ {
		c.Body = append(c.Body, logic.NewAtom("q",
			logic.Var(fmt.Sprintf("X%d", i)), logic.Var(fmt.Sprintf("X%d", i+1))))
	}
	for i := 0; i < m; i++ {
		d.Body = append(d.Body, logic.GroundAtom("q",
			fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)))
	}
	return c, d
}

// TestBudgetExhaustedCutoff: when the node budget runs out, the engine
// reports "does not subsume" — even for a pair that genuinely subsumes —
// and bumps the subsumption_budget_exhausted counter so metrics can tell
// cutoffs from real failures. The budget variable is lowered so the test
// is deterministic and fast instead of needing a multi-million-node pair.
func TestBudgetExhaustedCutoff(t *testing.T) {
	c, d := chainPair(10, 40)
	if !Subsumes(c, d) {
		t.Fatalf("chain pair should subsume under the full budget")
	}

	old := matchBudget
	matchBudget = 2 // a 10-literal chain needs at least 10 nodes
	defer func() { matchBudget = old }()

	reg := obs.NewRegistry()
	run := obs.NewRun(nil, reg)
	if Compile(d).SubsumesR(run, c) {
		t.Fatalf("exhausted search must report non-subsumption")
	}
	if got := reg.Get(obs.CSubsumptionBudgetExhausted); got != 1 {
		t.Fatalf("subsumption_budget_exhausted = %d, want 1", got)
	}
	// An exhausted call charges the whole budget to the node counter.
	if got := reg.Get(obs.CSubsumptionNodes); got != int64(matchBudget) {
		t.Fatalf("subsumption_nodes = %d, want %d", got, matchBudget)
	}
	if got := reg.Get(obs.CSubsumptionCalls); got != 1 {
		t.Fatalf("subsumption_calls = %d, want 1", got)
	}

	// Restored budget: the same pair subsumes again and the exhaustion
	// counter stays put — the cutoff left no state behind.
	matchBudget = old
	if !Compile(d).SubsumesR(run, c) {
		t.Fatalf("pair should subsume once the budget is restored")
	}
	if got := reg.Get(obs.CSubsumptionBudgetExhausted); got != 1 {
		t.Fatalf("subsumption_budget_exhausted moved to %d after a clean call", got)
	}
}

// TestCompiledProbeMany: one compilation answers many probes, repeated
// probes included — matcher state must not leak between calls.
func TestCompiledProbeMany(t *testing.T) {
	d := cl("t(a) :- p(a,b), p(b,c), q(c), r(a,a).")
	cd := Compile(d)
	probes := []struct {
		c    string
		want bool
	}{
		{"t(X) :- p(X,Y), p(Y,Z), q(Z).", true},
		{"t(X) :- p(X,Y), q(Y).", false},
		{"t(X) :- r(X,X).", true},
		{"t(X) :- p(X,Y), r(Y,Y).", false},
		{"t(X) :- p(X,Y).", true},
	}
	for round := 0; round < 3; round++ {
		for _, p := range probes {
			if got := cd.Subsumes(cl(p.c)); got != p.want {
				t.Fatalf("round %d: Subsumes(%s) = %v, want %v", round, p.c, got, p.want)
			}
		}
	}
	if cd.Len() != len(d.Body) {
		t.Fatalf("Len = %d, want %d", cd.Len(), len(d.Body))
	}
}

// TestCompiledConcurrentProbes: a Compiled target is immutable after
// Compile, so concurrent probes — the coverage engine's worker-pool usage —
// must agree with the sequential answers. Run under -race this is the
// safety check for sharing one compilation across the pool.
func TestCompiledConcurrentProbes(t *testing.T) {
	c, d := chainPair(8, 32)
	cd := Compile(d)
	bad := headed(append(append([]logic.Atom(nil), c.Body...),
		logic.GroundAtom("q", "absent", "absent")))

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !cd.Subsumes(c) {
					errs <- "chain probe: got false, want true"
					return
				}
				if cd.Subsumes(bad) {
					errs <- "bad probe: got true, want false"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCompileRowsMatchesCompile: a ground clause whose body literals are
// rows of relations bound to the space compiles to the target Compile
// builds from its names, answers probes alike at the same node counts, and
// holds no argument in its arena: the head, four ints per group and one
// per literal. Equal compares group by group, so moving a literal past
// one of another group leaves the target equal, while swapping two of one
// group does not. A predicate with no bound rows, a row past the bound
// ones and a head id outside the space compile to nothing, which sends a
// saturation down the name path; BindRows refuses rows it could not name.
func TestCompileRowsMatchesCompile(t *testing.T) {
	syms := logic.NewSymbols()
	for _, c := range []string{"a", "b", "c"} {
		syms.Intern(c)
	}
	space := NewSpace(syms, "t", "p", "q", "r", "z")
	id := func(name string) int32 {
		v, ok := space.Lookup(name)
		if !ok {
			t.Fatalf("space lacks %q", name)
		}
		return v
	}
	a, b, c := id("a"), id("b"), id("c")
	pRows := []int32{a, b, b, c, c, a} // p(a,b), p(b,c), p(c,a)
	qRows := []int32{b, a}             // q(b), q(a)
	if !space.BindRows(id("p"), 2, pRows) || !space.BindRows(id("q"), 1, qRows) {
		t.Fatal("BindRows refused a relation")
	}
	for _, bad := range []struct {
		what  string
		pred  int32
		arity int
		rows  []int32
	}{
		{"a second binding", id("p"), 2, pRows},
		{"rows of a partial tuple", id("r"), 2, pRows[:3]},
		{"a nullary relation", id("r"), 0, nil},
		{"a predicate outside the space", int32(syms.Len() + 100), 1, qRows},
	} {
		if space.BindRows(bad.pred, bad.arity, bad.rows) {
			t.Errorf("BindRows bound %s", bad.what)
		}
	}
	ground := logic.MustParseClause("t(a,z) :- p(a,b), q(b), p(c,a), q(a).")
	want := space.Compile(ground)
	head := []int32{a, id("z")}
	preds := []int32{id("p"), id("q"), id("p"), id("q")}
	rows := []int32{0, 0, 2, 1}
	got := space.CompileRows(id("t"), head, preds, rows)
	if got == nil || !got.Equal(want) {
		t.Fatal("CompileRows differs from Compile of the same clause")
	}
	if n := len(head) + groupInts*2 + len(preds); len(got.arena) != n {
		t.Errorf("the target's arena holds %d ints, want %d", len(got.arena), n)
	}
	for _, src := range []string{"t(X,Y) :- p(X,W), q(W), p(V,X).", "t(X,Y) :- p(X,W), p(W,X).", "t(X,Y) :- q(X), p(Y,X)."} {
		c := logic.MustParseClause(src)
		g, gNodes, _ := probeCounts(func(run *obs.Run) bool { return got.SubsumesR(run, c) })
		w, wNodes, _ := probeCounts(func(run *obs.Run) bool { return want.SubsumesR(run, c) })
		if g != w || gNodes != wNodes {
			t.Errorf("%s: the rows' target answers %v in %d nodes, the names' %v in %d", src, g, gNodes, w, wNodes)
		}
	}
	if !space.Compile(logic.MustParseClause("t(a,z) :- p(a,b), p(c,a), q(b), q(a).")).Equal(want) {
		t.Error("Equal sees how the literals of two groups interleave")
	}
	if space.Compile(logic.MustParseClause("t(a,z) :- p(c,a), q(b), p(a,b), q(a).")).Equal(want) {
		t.Error("Equal ignores the literal order within a group")
	}
	for _, bad := range []struct {
		what  string
		head  int32
		preds []int32
		rows  []int32
	}{
		{"an unbound relation", id("t"), []int32{id("p"), id("r")}, []int32{0, 0}},
		{"a row past the bound ones", id("t"), []int32{id("q"), id("p")}, []int32{0, 3}},
		{"a head outside the space", int32(syms.Len() + 100), preds, rows},
	} {
		if space.CompileRows(bad.head, head, bad.preds, bad.rows) != nil {
			t.Errorf("a clause holding %s compiled", bad.what)
		}
	}
}

// TestMixedArityProbes: a name-compiled target may hold one predicate at
// two arities, in two groups, so a source literal's domain is drawn from
// its own arity's group alone, and a source key whose arity the target
// lacks gets an empty domain, not an early failure. Sources with a
// constant the space lacks, a repeated variable, a head-bound variable and
// two components answer as the oracle does on the bodies under the head
// binding, both prepared against a shared space and one-shot, at the node
// counts the engine took when it still drew domains from an
// argument-position index.
func TestMixedArityProbes(t *testing.T) {
	d := cl("t(a) :- p(a), p(a,b), p(c,b), q(b).")
	syms := logic.NewSymbols()
	for _, c := range []string{"a", "b", "c"} {
		syms.Intern(c)
	}
	space := NewSpace(syms, "t", "p", "q")
	shared := space.Compile(d)
	head := logic.Substitution{"X": logic.Const("a")}
	for _, tc := range []struct {
		src   string
		nodes int64 // per probe
	}{
		{"t(X) :- p(X,zz).", 0},                    // zz: a constant the space lacks
		{"t(X) :- p(X), p(Y,zz).", 1},              // the same, behind a match
		{"t(X) :- p(Y,Y).", 0},                     // a repeated variable
		{"t(X) :- p(Y), p(Y,Y).", 0},               // the same, across arities
		{"t(X) :- p(X,Y), q(Y).", 2},               // head-bound X
		{"t(X) :- p(Y,X).", 0},                     // head-bound X at the wrong position
		{"t(X) :- p(X), q(Y), p(Z,Y).", 3},         // components {p(X)}, {q(Y), p(Z,Y)}
		{"t(X) :- p(X,Y), p(Z), p(Z,W), q(W).", 4}, // components {p(X,Y)}, {p(Z), p(Z,W), q(W)}
		{"t(X) :- p(Y), p(Y,Z), p(W,Z), p(W).", 4}, // W is a or c, only a is unary
		{"t(X) :- p(Y), p(W,Z), p(Z), q(Z).", 2},   // Z must be unary, a, which q lacks
		{"t(X) :- p(X), q(Y), p(Y,Y,Y).", 1},       // p/3, held at other arities only: an empty domain, no early failure
		{"t(X) :- p(c).", 0},                       // c heads only binary literals
	} {
		c := cl(tc.src)
		body := make([]logic.Atom, len(c.Body))
		for i, a := range c.Body {
			body[i] = a.Apply(head)
		}
		want := oracleSubsumesBody(body, d.Body)
		for _, probe := range []struct {
			name string
			run  func(*obs.Run) bool
		}{
			{"prepared", func(run *obs.Run) bool { return shared.Probe(run, space.Prepare(c)) }},
			{"one-shot", func(run *obs.Run) bool { return Compile(d).SubsumesR(run, c) }},
		} {
			reg := obs.NewRegistry()
			if got := probe.run(obs.NewRun(nil, reg)); got != want {
				t.Errorf("%s %s: subsumes = %v, want %v", probe.name, tc.src, got, want)
			}
			if got := reg.Get(obs.CSubsumptionNodes); got != tc.nodes {
				t.Errorf("%s %s: subsumption_nodes = %d, want %d", probe.name, tc.src, got, tc.nodes)
			}
		}
	}
}
