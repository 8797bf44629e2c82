package ilp_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// saturationGolden pins what the classic construction of §6.1 produces on
// one schema. clauses digests the text of every example's saturation, one
// cell per depth 0–3 × recall 0/2/10; stats digests each cell's per-table
// store statistics. tester digests a subsumption-mode tester run at
// Defaults() (MaxVars 20) for depths 1–3, with and without stored
// procedures: whether each example's variablized bottom clause covers its
// own saturation, then the tester's per-table statistics. The digests were
// recorded from the string-keyed construction the id-space builder
// replaced.
type saturationGolden struct {
	name    string
	clauses string // FNV-1a 64, hex
	stats   string
	tester  string
}

// unknownTargets are target atoms holding constants the instance lacks:
// one per argument position keeping the first positive's constant there,
// and one repeating a single unknown constant.
func unknownTargets(prob *ilp.Problem) []logic.Atom {
	known := prob.Pos[0].Args
	var out []logic.Atom
	for k := range known {
		args := make([]string, len(known))
		for j := range args {
			args[j] = fmt.Sprint("nobody", j)
			if j == k {
				args[j] = known[j].Name
			}
		}
		out = append(out, logic.GroundAtom(prob.Target.Name, args...))
	}
	same := make([]string, len(known))
	for j := range same {
		same[j] = "nobody"
	}
	return append(out, logic.GroundAtom(prob.Target.Name, same...))
}

// writeStoreStats renders the per-table statistics published into reg
// into h in table-name order.
func writeStoreStats(h hash.Hash64, reg *obs.Registry) {
	stats := reg.Snapshot().Store
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(h, "%s lookups=%d scanned=%d hits=%d ind=%d\n", n, s.Lookups, s.TuplesScanned, s.IndexHits, s.INDExpansions)
	}
}

// saturationSweep returns prob's golden record.
func saturationSweep(prob *ilp.Problem) saturationGolden {
	examples := append(append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...), unknownTargets(prob)...)
	hc, hs, ht := fnv.New64a(), fnv.New64a(), fnv.New64a()
	for depth := 0; depth <= 3; depth++ {
		for _, recall := range []int{0, 2, 10} {
			// ilp.Saturation with a registry attached.
			reg := obs.NewRegistry()
			params := ilp.Params{Depth: depth, MaxRecall: recall, Obs: obs.NewRun(nil, reg)}
			bld := ilp.NewBuilder(prob, nil)
			fmt.Fprintf(hc, "depth=%d recall=%d\n", depth, recall)
			for _, e := range examples {
				fmt.Fprintln(hc, bld.Build(e, params, nil).String())
			}
			fmt.Fprintf(hs, "depth=%d recall=%d\n", depth, recall)
			writeStoreStats(hs, reg)
		}
	}
	for depth := 1; depth <= 3; depth++ {
		for _, storedProc := range []bool{true, false} {
			params := ilp.Defaults()
			params.CoverageMode = ilp.CoverageSubsumption
			params.Parallelism = 1
			params.Depth, params.UseStoredProc = depth, storedProc
			bottoms := make([]*logic.Clause, len(examples))
			for k, e := range examples {
				bottoms[k] = ilp.BottomClause(prob, e, params.Depth, params.MaxRecall)
			}
			reg := obs.NewRegistry()
			params.Obs = obs.NewRun(nil, reg)
			tester := ilp.NewTester(prob, params)
			fmt.Fprintf(ht, "depth=%d stored-proc=%v\n", depth, storedProc)
			for k, e := range examples {
				fmt.Fprintln(ht, tester.Covers(bottoms[k], e))
			}
			writeStoreStats(ht, reg)
		}
	}
	hex := func(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }
	return saturationGolden{clauses: hex(hc), stats: hex(hs), tester: hex(ht)}
}

// TestSaturationGolden sweeps every example of the ten paper schemas,
// plus examples holding constants the instance lacks, through the classic
// construction. It pins the three places the classic policy differs from
// Castor's: depth 0 builds no literals, the recall cap counts new literals
// per relation and iteration, checked before each constant and each tuple,
// and neither the MaxVars stop nor the stored-procedure copies apply, so
// Defaults()' MaxVars 20 cannot truncate a saturation.
func TestSaturationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps about 6k saturations")
	}
	schemas, err := testfix.TenSchemas()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]saturationGolden{}
	for _, g := range []saturationGolden{
		{"UW-CSE/Original", "a401c917df6828f5", "8feae57b8ae01ebc", "f8c49c4fd337429e"},
		{"UW-CSE/4NF", "be49341da8b86185", "104dcf9f93739301", "758c8a7554b37294"},
		{"UW-CSE/Denormalized-1", "123903ad682b7e53", "ccbedf5a5db67b1c", "a3f5b51f87587cd8"},
		{"UW-CSE/Denormalized-2", "05b3d12fe5398cc0", "e8670ca38d308416", "eed1149e5d5c4124"},
		{"HIV/Initial", "1944b4c755b2607d", "be3dc0b9cea4a7f9", "d4ef82eb0ea1f54c"},
		{"HIV/4NF-1", "8f89957a5ce8f523", "376801cd53713b47", "4e01b8f5e0e674b8"},
		{"HIV/4NF-2", "3e5a9c0588616c94", "1dfcc2a5a6a8c583", "1515c12336711a4a"},
		{"IMDb/JMDB", "0a25a4b508027fdb", "0f3a7a90a58ee644", "636793cda2b5b8f6"},
		{"IMDb/Stanford", "c7186c4a032a431c", "b8dcb4736ef54f3f", "e022e38346665c64"},
		{"IMDb/Denormalized", "3b6ff85e78c6e66a", "3a5063815805a6a0", "790e85855888c8be"},
	} {
		want[g.name] = g
	}
	for _, s := range schemas {
		got := saturationSweep(s.Prob)
		got.name = s.Name
		if w := want[s.Name]; got != w {
			t.Errorf("%s:\n got  {%q, %q, %q, %q}\n want {%q, %q, %q, %q}",
				s.Name, got.name, got.clauses, got.stats, got.tester, w.name, w.clauses, w.stats, w.tester)
		}
	}
}
