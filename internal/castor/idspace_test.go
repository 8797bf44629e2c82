package castor

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/subsume"
)

// coverageTester builds the tester Learn builds: in subsumption mode its
// saturations compile from ids through bld, which it returns.
func coverageTester(prob *ilp.Problem, params ilp.Params) (*ilp.Tester, *builder) {
	tester := ilp.NewTester(prob, params)
	bld := newBuilder(prob, relstore.CompilePlan(prob.Instance.Schema(), params.SubsetINDs))
	if params.CoverageMode == ilp.CoverageSubsumption {
		bld.compileInto(tester.Space())
		tester.CompileSat = func(e logic.Atom) *subsume.Compiled { return bld.compile(e, params) }
	}
	return tester, bld
}

// compileFromIDs runs the id path alone: the construction, then
// compileIDs, with no fallback to the clause of names.
func compileFromIDs(bld *builder, e logic.Atom, params ilp.Params) *subsume.Compiled {
	sc := bld.getScratch()
	defer bld.scratch.Put(sc)
	bld.saturate(sc, e, params, nil)
	return bld.compileIDs(sc, e)
}

// smallDatasets generates UW-CSE at its default scale and HIV and IMDb at
// scale 0.5, the datasets of TestGroundBottomClauseGolden.
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

// unknownExamples are target atoms holding constants the instance lacks,
// alone and next to a constant it holds.
func unknownExamples(ds *datasets.Dataset) []logic.Atom {
	known := ds.Pos[0].Args
	var out []logic.Atom
	for k := range known {
		args := make([]string, len(known))
		for j := range args {
			args[j] = "nobody" + fmt.Sprint(j)
			if j == k {
				args[j] = known[j].Name
			}
		}
		out = append(out, logic.GroundAtom(ds.Target.Name, args...))
	}
	same := make([]string, len(known))
	for j := range same {
		same[j] = "nobody"
	}
	return append(out, logic.GroundAtom(ds.Target.Name, same...))
}

// TestIDCompiledSaturationsMatchNamePath: every example's saturation,
// compiled straight from store ids, is the target the space compiles from
// the ground bottom clause of names — same head, same literal order, same
// argument ids — on UW-CSE ×4, HIV ×3 and IMDb ×3, with and without
// stored procedures, including examples holding constants the instance
// lacks. Atoms outside the problem fall back to the names.
func TestIDCompiledSaturationsMatchNamePath(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every example's saturation twice, 20 times over")
	}
	uw, hiv, imdb := smallDatasets(t)
	type cell struct {
		ds     *datasets.Dataset
		schema string
	}
	var cells []cell
	for _, s := range []string{"Original", "4NF", "Denormalized-1", "Denormalized-2"} {
		cells = append(cells, cell{uw, s})
	}
	for _, s := range []string{"Initial", "4NF-1", "4NF-2"} {
		cells = append(cells, cell{hiv, s})
	}
	for _, s := range []string{"JMDB", "Stanford", "Denormalized"} {
		cells = append(cells, cell{imdb, s})
	}
	for _, c := range cells {
		for _, storedProc := range []bool{true, false} {
			prob, err := c.ds.Problem(c.schema)
			if err != nil {
				t.Fatal(err)
			}
			prob.Neg = append(append([]logic.Atom(nil), prob.Neg...), unknownExamples(c.ds)...)
			params := ilp.Defaults()
			params.CoverageMode = ilp.CoverageSubsumption
			params.UseStoredProc = storedProc
			tester, bld := coverageTester(prob, params)
			space := tester.Space()
			examples := append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...)
			for _, e := range examples {
				want := space.Compile(GroundBottomClause(prob, bld.plan, e, params))
				got := compileFromIDs(bld, e, params)
				if got == nil {
					t.Fatalf("%s/%s stored-proc=%v: %v did not compile from ids", c.ds.Name, c.schema, storedProc, e)
				}
				if !got.Equal(want) {
					t.Fatalf("%s/%s stored-proc=%v: %v compiled from ids differs from the name path", c.ds.Name, c.schema, storedProc, e)
				}
			}
			stray := logic.GroundAtom(c.ds.Target.Name, "stranger", "stranger")
			if compileFromIDs(bld, stray, params) != nil {
				t.Errorf("%s/%s: %v holds names outside the space but compiled from ids", c.ds.Name, c.schema, stray)
			}
			if cd := bld.compile(stray, params); cd.Len() != len(GroundBottomClause(prob, bld.plan, stray, params).Body) {
				t.Errorf("%s/%s: %v fell back to a different clause", c.ds.Name, c.schema, stray)
			}
		}
	}
}

// TestCoveredSetStoreStatsParallel: CoveredSet publishes the same store
// statistics and counters at Parallelism 1 and 4 in both coverage modes.
// CoveredSet never prunes, so every test runs at both worker counts and
// the totals must be identical; only where they accumulate differs.
func TestCoveredSetStoreStatsParallel(t *testing.T) {
	u := datasets.DefaultUWCSE()
	u.Seed, u.Scale = 4, 0.5
	ds, err := datasets.GenerateUWCSE(u)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := ds.Problem("4NF")
	if err != nil {
		t.Fatal(err)
	}
	params := ilp.Defaults()
	params.Parallelism = 1
	def, err := New().Learn(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	// The learned clauses and every leave-one-literal-out generalization.
	var clauses []*logic.Clause
	for _, c := range def.Clauses {
		clauses = append(clauses, c)
		for k := range c.Body {
			body := append(append([]logic.Atom(nil), c.Body[:k]...), c.Body[k+1:]...)
			clauses = append(clauses, &logic.Clause{Head: c.Head, Body: body})
		}
	}
	if len(clauses) < 3 {
		t.Fatalf("learned %d clauses, want a definition to generalize", len(clauses))
	}
	counters := []obs.Counter{obs.CCoverageTests, obs.CTuplesScanned, obs.CSaturationMisses, obs.CEvalBudgetExhausted}
	for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
		var wantStats map[string]obs.StoreStat
		var wantCounts []int64
		for _, par := range []int{1, 4} {
			prob.Instance.ResetStoreStats()
			reg := obs.NewRegistry()
			p := params
			p.CoverageMode, p.Parallelism, p.Obs = mode, par, obs.NewRun(nil, reg)
			tester, _ := coverageTester(prob, p)
			for _, c := range clauses {
				tester.CoveredSet(c, prob.Pos, nil)
				tester.CoveredSet(c, prob.Neg, nil)
			}
			stats := prob.Instance.StoreStats()
			var counts []int64
			for _, c := range counters {
				counts = append(counts, reg.Get(c))
			}
			if len(stats) == 0 || counts[0] == 0 {
				t.Fatalf("mode %d par %d: no statistics published: %v %v", mode, par, stats, counts)
			}
			if par == 1 {
				wantStats, wantCounts = stats, counts
				continue
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Errorf("mode %d: store statistics at Parallelism %d\n%v\nwant (Parallelism 1)\n%v", mode, par, stats, wantStats)
			}
			if !reflect.DeepEqual(counts, wantCounts) {
				t.Errorf("mode %d: counters %v at Parallelism %d, want %v", mode, par, counts, wantCounts)
			}
		}
	}
}

// TestSaturationCompileAllocPin: once a builder's scratch has grown,
// building and compiling one UW-CSE saturation from ids allocates only the
// compiled target's own arrays — its header, its int32 arena (literals,
// head, predicate lists and argument-index tables), the index's key array
// and the per-predicate list headers. The construction itself, its
// dedupe sets and its store statistics allocate nothing.
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
	_, bld := coverageTester(prob, params)
	for _, e := range []logic.Atom{prob.Pos[0], prob.Neg[0]} {
		cd := bld.compile(e, params) // warm-up: the scratch grows to fit
		if cd.Len() == 0 {
			t.Fatalf("%v: empty saturation", e)
		}
		const targetArrays = 4
		if n := testing.AllocsPerRun(50, func() { bld.compile(e, params) }); n != targetArrays {
			t.Errorf("%v: compiling a saturation allocates %.1f times, want %d", e, n, targetArrays)
		}
	}
}
