package ilp_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/subsume"
	"repro/internal/testfix"
)

// nameSaturation is the string-keyed construction the builder's classic
// policy replaced, kept as its reference: constants are names, literals
// dedupe by Atom.Key, and every scan fetches the rows holding a constant
// through Table.AppendRowsContaining, counting on tl, and writes them out
// as tuples of names.
func nameSaturation(prob *ilp.Problem, e logic.Atom, depth, maxRecall int, tl *relstore.Tally) *logic.Clause {
	c := &logic.Clause{Head: e.Clone()}
	schema := prob.Instance.Schema()
	syms := prob.Instance.Symbols()
	containing := func(table *relstore.Table, v string) []relstore.Tuple {
		id, ok := syms.Lookup(v)
		if !ok {
			id = logic.UnknownSym
		}
		var out []relstore.Tuple
		for _, r := range table.AppendRowsContaining(nil, id, tl) {
			var tp relstore.Tuple
			for _, x := range table.Row(r) {
				tp = append(tp, syms.Name(x))
			}
			out = append(out, tp)
		}
		return out
	}

	known := make(map[string]bool)
	var frontier []string // constants added in the previous iteration
	addConst := func(v string) {
		if !known[v] {
			known[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, t := range e.Args {
		addConst(t.Name)
	}
	seenAtoms := make(map[string]bool)

	for iter := 0; iter < depth && len(frontier) > 0; iter++ {
		chase := frontier
		frontier = nil
		var discovered []string
		for _, rel := range schema.Relations() {
			table := prob.Instance.Table(rel.Name)
			if table == nil {
				continue
			}
			collected := 0
			for _, cst := range chase {
				if maxRecall > 0 && collected >= maxRecall {
					break
				}
				for _, tp := range containing(table, cst) {
					if maxRecall > 0 && collected >= maxRecall {
						break
					}
					atom := logic.GroundAtom(rel.Name, tp...)
					k := atom.Key()
					if seenAtoms[k] {
						continue
					}
					seenAtoms[k] = true
					c.Body = append(c.Body, atom)
					collected++
					for pos, v := range tp {
						if prob.IsValueAttr(schema, rel.Attrs[pos]) {
							continue
						}
						if !known[v] {
							known[v] = true
							discovered = append(discovered, v)
						}
					}
				}
			}
		}
		frontier = discovered
	}
	return c
}

// randomProblem builds a small random instance: up to four relations of
// arity 1–3 over five attributes, two of them value domains, tuples over
// eight constants, indexed or not, and a binary target.
func randomProblem(r *rand.Rand) *ilp.Problem {
	attrs := []string{"a", "b", "c", "v", "w"}
	schema := relstore.NewSchema()
	schema.SetDomain("b", "a") // a shared domain: b's constants chase like a's
	for k := 1 + r.Intn(4); k > 0; k-- {
		perm := r.Perm(len(attrs))
		var rel []string
		for _, i := range perm[:1+r.Intn(3)] {
			rel = append(rel, attrs[i])
		}
		schema.MustAddRelation(fmt.Sprint("r", k), rel...)
	}
	inst := relstore.NewInstance(schema)
	if r.Intn(3) == 0 {
		inst = relstore.NewUnindexedInstance(schema)
	}
	for _, rel := range schema.Relations() {
		for n := r.Intn(12); n > 0; n-- {
			tp := make([]string, rel.Arity())
			for i := range tp {
				tp[i] = fmt.Sprint("c", r.Intn(8))
			}
			if err := inst.Insert(rel.Name, tp...); err != nil {
				panic(err)
			}
		}
	}
	var pos []logic.Atom
	for n := 1 + r.Intn(4); n > 0; n-- {
		args := make([]string, 2)
		for i := range args {
			args[i] = fmt.Sprint("c", r.Intn(8))
			if r.Intn(5) == 0 {
				args[i] = fmt.Sprint("unknown", r.Intn(2))
			}
		}
		pos = append(pos, logic.GroundAtom("t", args...))
	}
	return &ilp.Problem{
		Instance:   inst,
		Target:     &relstore.Relation{Name: "t", Attrs: []string{"a", "c"}},
		Pos:        pos,
		ValueAttrs: map[string]bool{"v": true, "w": r.Intn(2) == 0},
	}
}

// TestQuickSaturationMatchesNamePath: on random small instances, depths
// and recall caps, the builder's classic policy builds the clause the
// string-keyed construction builds and leaves the same per-table store
// statistics, whatever MaxVars and UseStoredProc say, and so does the
// Saturation wrapper.
func TestQuickSaturationMatchesNamePath(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prob := randomProblem(r)
		bld := ilp.NewBuilder(prob, nil)
		for _, e := range prob.Pos {
			params := ilp.Params{
				Depth: r.Intn(6) - 1, MaxRecall: r.Intn(5) - 1,
				MaxVars: r.Intn(4), UseStoredProc: r.Intn(2) == 0,
			}
			tl := prob.Instance.NewTally()
			want := nameSaturation(prob, e, params.Depth, params.MaxRecall, tl)
			wantReg, gotReg := obs.NewRegistry(), obs.NewRegistry()
			tl.Publish(obs.NewRun(nil, wantReg))
			wantStats := wantReg.Snapshot().Store
			params.Obs = obs.NewRun(nil, gotReg)
			got := bld.Build(e, params, nil)
			gotStats := gotReg.Snapshot().Store
			wrapped := ilp.Saturation(prob, e, params.Depth, params.MaxRecall)
			if got.String() != want.String() || wrapped.String() != want.String() || !reflect.DeepEqual(gotStats, wantStats) {
				t.Logf("%v at %+v:\n got  %v\n wrap %v\n want %v\nstats %v\nwant  %v", e, params, got, wrapped, want, gotStats, wantStats)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// smallDatasets generates UW-CSE at its default scale and HIV and IMDb at
// scale 0.5.
func smallDatasets(t *testing.T) (uw, hiv, imdb *datasets.Dataset) {
	t.Helper()
	var err error
	u := datasets.DefaultUWCSE()
	u.Seed = 3
	if uw, err = datasets.GenerateUWCSE(u); err != nil {
		t.Fatal(err)
	}
	h := datasets.DefaultHIV2K4K()
	h.Seed, h.Scale = 5, 0.5
	if hiv, err = datasets.GenerateHIV(h); err != nil {
		t.Fatal(err)
	}
	m := datasets.DefaultIMDb()
	m.Seed, m.Scale = 9, 0.5
	if imdb, err = datasets.GenerateIMDb(m); err != nil {
		t.Fatal(err)
	}
	return uw, hiv, imdb
}

// boundTester returns a subsumption-mode tester whose saturations compile
// through a builder of the given plan (nil: the classic policy), and the
// builder.
func boundTester(prob *ilp.Problem, plan *relstore.Plan, params ilp.Params) (*ilp.Tester, *ilp.Builder) {
	tester := ilp.NewTester(prob, params)
	bld := ilp.NewBuilder(prob, plan)
	tester.UseBuilder(bld)
	return tester, bld
}

// paperCell is one (dataset, schema) cell of the paper's tables.
type paperCell struct {
	ds     *datasets.Dataset
	schema string
}

// paperCells returns the ten cells over smallDatasets: UW-CSE ×4, HIV ×3
// and IMDb ×3.
func paperCells(t *testing.T) []paperCell {
	uw, hiv, imdb := smallDatasets(t)
	var cells []paperCell
	for _, s := range []string{"Original", "4NF", "Denormalized-1", "Denormalized-2"} {
		cells = append(cells, paperCell{uw, s})
	}
	for _, s := range []string{"Initial", "4NF-1", "4NF-2"} {
		cells = append(cells, paperCell{hiv, s})
	}
	for _, s := range []string{"JMDB", "Stanford", "Denormalized"} {
		cells = append(cells, paperCell{imdb, s})
	}
	return cells
}

// TestIDCompiledSaturationsMatchNamePath: every example's saturation,
// compiled straight from store ids, is the target the space compiles from
// the ground bottom clause of names — same head and, group by group, the
// same literals in the same order with the same argument ids — on UW-CSE
// ×4, HIV ×3 and IMDb ×3, with and without stored procedures, including
// examples holding constants the instance lacks, in both policies.
// Castor's is checked against a fresh builder's clause, the classic one
// against the Saturation wrapper under Defaults()' depth and recall. Atoms
// outside the problem fall back to the names. Compiled.Equal does not see
// how literals of different predicates interleave, since the layout keeps
// no such order and no probe can observe it; the literal order of the
// clauses themselves is pinned by TestGroundBottomClauseGolden and
// TestSaturationGolden.
func TestIDCompiledSaturationsMatchNamePath(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every example's saturation twice, 40 times over")
	}
	for _, c := range paperCells(t) {
		for _, castor := range []bool{true, false} {
			for _, storedProc := range []bool{true, false} {
				prob, err := c.ds.Problem(c.schema)
				if err != nil {
					t.Fatal(err)
				}
				prob.Neg = append(append([]logic.Atom(nil), prob.Neg...), unknownTargets(prob)...)
				params := ilp.Defaults()
				params.CoverageMode = ilp.CoverageSubsumption
				params.UseStoredProc = storedProc
				var plan *relstore.Plan
				if castor {
					plan = relstore.CompilePlan(prob.Instance.Schema(), params.SubsetINDs)
				}
				names := func(e logic.Atom) *logic.Clause {
					if castor {
						return ilp.NewBuilder(prob, plan).Build(e, params, nil)
					}
					return ilp.Saturation(prob, e, params.Depth, params.MaxRecall)
				}
				tester, bld := boundTester(prob, plan, params)
				space := ilp.TesterSpace(tester)
				label := fmt.Sprintf("%s/%s castor=%v stored-proc=%v", c.ds.Name, c.schema, castor, storedProc)
				examples := append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...)
				for _, e := range examples {
					want := space.Compile(names(e))
					got := ilp.CompileFromIDs(bld, e, params)
					if got == nil {
						t.Fatalf("%s: %v did not compile from ids", label, e)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: %v compiled from ids differs from the name path", label, e)
					}
				}
				stray := logic.GroundAtom(c.ds.Target.Name, "stranger", "stranger")
				if ilp.CompileFromIDs(bld, stray, params) != nil {
					t.Errorf("%s: %v holds names outside the space but compiled from ids", label, stray)
				}
				if cd := ilp.CompileSaturation(bld, stray, params); cd.Len() != len(names(stray).Body) {
					t.Errorf("%s: %v fell back to a different clause", label, stray)
				}
			}
		}
	}
}

// TestBuilderOfAnotherInstanceCompilesByName: a tester's space binds the
// rows of the tester's own instance, so a builder over another instance,
// here the 4NF twin of the tester's Original instance, whose relations
// share names but not rows, never names rows: every saturation compiles
// through its clause of names and equals Space.Compile of it.
func TestBuilderOfAnotherInstanceCompilesByName(t *testing.T) {
	w := testfix.NewWorld(8)
	orig, fourNF := w.ProblemOriginal(), w.Problem4NF()
	params := ilp.Defaults()
	params.CoverageMode = ilp.CoverageSubsumption
	tester := ilp.NewTester(orig, params)
	bld := ilp.NewBuilder(fourNF, nil)
	tester.UseBuilder(bld)
	space := ilp.TesterSpace(tester)
	for _, e := range append(append([]logic.Atom(nil), fourNF.Pos...), fourNF.Neg...) {
		if ilp.CompileFromIDs(bld, e, params) != nil {
			t.Fatalf("%v: the builder named rows of an instance the space does not bind", e)
		}
		if !ilp.CompileSaturation(bld, e, params).Equal(space.Compile(bld.Build(e, params, nil))) {
			t.Fatalf("%v: the saturation differs from the clause of names compiled", e)
		}
	}
}

// TestQuickStoreBackedProbesMatchNamePath: a saturation compiled from the
// store's rows answers every probe as Space.Compile of its clause of names
// does, with the same subsumption_nodes, on UW-CSE ×4, HIV ×3 and IMDb ×3
// in both policies. The sources are the variablized bottom clauses of the
// first positive and the first negative, prepared once against the
// tester's space and probed whole and, through ProbeSub, under random
// masks. Four goroutines probe the same targets at once, each with its
// own Sub, so under -race this is the safety check for sharing targets
// that point into the store's rows.
func TestQuickStoreBackedProbesMatchNamePath(t *testing.T) {
	if testing.Short() {
		t.Skip("probes 20 saturations of 20 cells from four goroutines")
	}
	type pair struct{ rows, names *subsume.Compiled }
	type source struct {
		src *subsume.Source
		n   int
	}
	var answers [2]atomic.Int64 // probes answering false, true
	for _, c := range paperCells(t) {
		for _, castor := range []bool{true, false} {
			prob, err := c.ds.Problem(c.schema)
			if err != nil {
				t.Fatal(err)
			}
			params := ilp.Defaults()
			params.CoverageMode = ilp.CoverageSubsumption
			var plan *relstore.Plan
			if castor {
				plan = relstore.CompilePlan(prob.Instance.Schema(), params.SubsetINDs)
			}
			tester, bld := boundTester(prob, plan, params)
			space := ilp.TesterSpace(tester)
			label := fmt.Sprintf("%s/%s castor=%v", c.ds.Name, c.schema, castor)
			var pairs []pair
			for _, e := range append(append([]logic.Atom(nil), prob.Pos[:min(10, len(prob.Pos))]...), prob.Neg[:min(10, len(prob.Neg))]...) {
				rows := ilp.CompileFromIDs(bld, e, params)
				if rows == nil {
					t.Fatalf("%s: %v did not compile from the store's rows", label, e)
				}
				pairs = append(pairs, pair{rows, space.Compile(bld.Build(e, params, nil))})
			}
			var sources []source
			for _, e := range []logic.Atom{prob.Pos[0], prob.Neg[0]} {
				b := ilp.Variablize(prob, bld.Build(e, params, nil))
				sources = append(sources, source{space.Prepare(b), len(b.Body)})
			}
			counts := func(cd *subsume.Compiled, probe func(*subsume.Compiled, *obs.Run) bool) (bool, int64) {
				reg := obs.NewRegistry()
				ok := probe(cd, obs.NewRun(nil, reg))
				return ok, reg.Get(obs.CSubsumptionNodes)
			}
			var wg sync.WaitGroup
			for w := range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var sub subsume.Sub
					prop := func(seed int64) bool {
						r := rand.New(rand.NewSource(seed))
						p, s := pairs[r.Intn(len(pairs))], sources[r.Intn(len(sources))]
						keep := make([]bool, s.n)
						density := []float64{0.1, 0.3, 0.6}[r.Intn(3)]
						for k := range keep {
							keep[k] = r.Float64() < density
						}
						for _, probe := range []func(*subsume.Compiled, *obs.Run) bool{
							func(cd *subsume.Compiled, run *obs.Run) bool { return cd.Probe(run, s.src) },
							func(cd *subsume.Compiled, run *obs.Run) bool { return cd.ProbeSub(run, s.src, keep, &sub) },
						} {
							got, gotNodes := counts(p.rows, probe)
							want, wantNodes := counts(p.names, probe)
							if got != want || gotNodes != wantNodes {
								t.Logf("%s, seed %d: the rows' target answers %v in %d nodes, the names' %v in %d", label, seed, got, gotNodes, want, wantNodes)
								return false
							}
							if got {
								answers[1].Add(1)
							} else {
								answers[0].Add(1)
							}
						}
						return true
					}
					if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(int64(w)))}); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				}()
			}
			wg.Wait()
		}
	}
	no, yes := answers[0].Load(), answers[1].Load()
	if no == 0 || yes == 0 {
		t.Errorf("%d probes answered false and %d true: the sources decide nothing", no, yes)
	}
	t.Logf("%d probes answered false, %d true", no, yes)
}

// TestSaturationCompileAllocPin: once a builder's scratch has grown,
// building and compiling one UW-CSE saturation from the store's rows
// allocates only the compiled target: its header, which holds the arena
// and int32 offsets into it and fits the 48 B size class, and one int32
// arena holding the head's arguments, four ints per (predicate, arity)
// group and one offset per literal, and no argument: the literals are
// rows the tester's space binds. So two allocations of at most the
// header's and the arena's size classes in bytes (Castor's saturation of
// the first positive at seed 3, 34 literals in 9 groups, takes 48 + 288 B;
// copying the rows' arguments and the per-literal tables into the arena,
// it took 64 + 896).
// The construction itself, its dedupe sets and its store statistics
// allocate nothing, in Castor's policy and in the classic one, which
// copies no fetch even without stored procedures.
func TestSaturationCompileAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	u := datasets.DefaultUWCSE()
	u.Seed = 3
	ds, err := datasets.GenerateUWCSE(u)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := ds.Problem("Original")
	if err != nil {
		t.Fatal(err)
	}
	params := ilp.Defaults()
	params.CoverageMode = ilp.CoverageSubsumption
	castor := relstore.CompilePlan(prob.Instance.Schema(), params.SubsetINDs)
	// sizeClass is the allocator's size for an n-byte object: growslice
	// rounds a new capacity up to it.
	sizeClass := func(n uintptr) uint64 { return uint64(cap(slices.Grow([]byte(nil), int(n)))) }
	const headerBytes = 48
	if h := sizeClass(unsafe.Sizeof(subsume.Compiled{})); h > headerBytes {
		t.Fatalf("a compiled target's header takes %d B, want at most %d", h, headerBytes)
	}
	for _, cfg := range []struct {
		plan       *relstore.Plan
		storedProc bool
	}{{castor, true}, {nil, true}, {nil, false}} {
		params.UseStoredProc = cfg.storedProc
		_, bld := boundTester(prob, cfg.plan, params)
		for _, e := range []logic.Atom{prob.Pos[0], prob.Neg[0]} {
			cd := ilp.CompileSaturation(bld, e, params) // warm-up: the scratch grows to fit
			if cd.Len() == 0 {
				t.Fatalf("%v: empty saturation", e)
			}
			label := fmt.Sprintf("castor=%v stored-proc=%v %v", cfg.plan != nil, cfg.storedProc, e)
			const header, arena = 1, 1
			if n := testing.AllocsPerRun(50, func() { ilp.CompileSaturation(bld, e, params) }); n != header+arena {
				t.Errorf("%s: compiling a saturation allocates %.1f times, want %d", label, n, header+arena)
			}
			c := bld.Build(e, params, nil)
			groups := 0
			for i, a := range c.Body {
				if !slices.ContainsFunc(c.Body[:i], func(b logic.Atom) bool { return b.Pred == a.Pred && len(b.Args) == len(a.Args) }) {
					groups++
				}
			}
			ints := len(c.Head.Args) + 4*groups + len(c.Body)
			limit := headerBytes + sizeClass(4*uintptr(ints))
			if b := bytesPerRun(50, func() { ilp.CompileSaturation(bld, e, params) }); b > limit {
				t.Errorf("%s: compiling a saturation allocates %d B, want at most %d", label, b, limit)
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun counting bytes: the bytes f
// allocates per call, averaged over runs calls after a warm-up one, with
// GOMAXPROCS at 1 as AllocsPerRun sets it. A collection first leaves the
// heap far below its goal, so none runs mid-measurement: one would empty
// the builder's scratch pool, and refilling it would count against f.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
