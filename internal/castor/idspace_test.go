package castor

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
)

// coverageTester builds the tester Learn builds: in subsumption mode its
// saturations compile from ids through bld, which it returns.
func coverageTester(prob *ilp.Problem, params ilp.Params) (*ilp.Tester, *ilp.Builder) {
	tester := ilp.NewTester(prob, params)
	bld := ilp.NewBuilder(prob, relstore.CompilePlan(prob.Instance.Schema(), params.SubsetINDs))
	if params.CoverageMode == ilp.CoverageSubsumption {
		tester.UseBuilder(bld)
	}
	return tester, bld
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
			reg := obs.NewRegistry()
			p := params
			p.CoverageMode, p.Parallelism, p.Obs = mode, par, obs.NewRun(nil, reg)
			tester, _ := coverageTester(prob, p)
			for _, c := range clauses {
				tester.CoveredSet(c, prob.Pos, nil)
				tester.CoveredSet(c, prob.Neg, nil)
			}
			stats := reg.Snapshot().Store
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
