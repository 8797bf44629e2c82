package castor

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
)

// bottomGolden pins what ground bottom-clause construction produces on one
// schema of a generated dataset: a digest of every example's clause text,
// in example order, the two construction counters, and a digest of every
// table's access statistics the sweep published. The digests were recorded
// from the string-keyed construction the id-space builder replaced, so a
// change to literal order, to a stopping rule, to the IND chase or to any
// probe's accounting shows here.
type bottomGolden struct {
	name      string
	clauses   string // FNV-1a 64 of the clause texts, hex
	chaseHops int64
	scanned   int64
	stats     string // FNV-1a 64 of the rendered per-table statistics, hex
}

// bottomGoldenSweep builds the ground bottom clause of every example of
// prob (positives, then negatives, then extra) and returns its golden
// record alongside the rendered table statistics.
func bottomGoldenSweep(prob *ilp.Problem, params ilp.Params, extra ...logic.Atom) (bottomGolden, string) {
	plan := relstore.CompilePlan(prob.Instance.Schema(), params.SubsetINDs)
	reg := obs.NewRegistry()
	params.Obs = obs.NewRun(nil, reg)
	h := fnv.New64a()
	examples := append(append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...), extra...)
	for _, e := range examples {
		fmt.Fprintln(h, GroundBottomClause(prob, plan, e, params).String())
	}
	stats := reg.Snapshot().Store
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(&b, "%s lookups=%d scanned=%d hits=%d ind=%d\n", n, s.Lookups, s.TuplesScanned, s.IndexHits, s.INDExpansions)
	}
	hs := fnv.New64a()
	hs.Write([]byte(b.String()))
	return bottomGolden{
		clauses:   fmt.Sprintf("%016x", h.Sum64()),
		chaseHops: reg.Get(obs.CINDChaseHops),
		scanned:   reg.Get(obs.CTuplesScanned),
		stats:     fmt.Sprintf("%016x", hs.Sum64()),
	}, b.String()
}

// unindexedCopy loads the instance's tuples into a fresh instance without
// posting indexes, so every probe scans.
func unindexedCopy(t *testing.T, inst *relstore.Instance) *relstore.Instance {
	t.Helper()
	out := relstore.NewUnindexedInstance(inst.Schema())
	for _, rel := range inst.Schema().Relations() {
		for _, tp := range inst.Table(rel.Name).Tuples() {
			if err := out.Insert(rel.Name, tp...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestGroundBottomClauseGolden sweeps every example of UW-CSE (4 schemas),
// HIV (3) and IMDb (3) at small fixed scales and seeds, plus the
// configurations the construction branches on: no stored procedures (every
// fetch copied), an unindexed instance, a depth cutoff, a variable-budget
// cutoff, and examples holding constants the instance lacks.
func TestGroundBottomClauseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps about 3k bottom clauses")
	}
	uw := datasets.DefaultUWCSE()
	uw.Seed = 3
	uwds, err := datasets.GenerateUWCSE(uw)
	if err != nil {
		t.Fatal(err)
	}
	hiv := datasets.DefaultHIV2K4K()
	hiv.Seed, hiv.Scale = 5, 0.5
	hivds, err := datasets.GenerateHIV(hiv)
	if err != nil {
		t.Fatal(err)
	}
	imdb := datasets.DefaultIMDb()
	imdb.Seed, imdb.Scale = 9, 0.5
	imdbds, err := datasets.GenerateIMDb(imdb)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bottomGolden{}
	for _, g := range []bottomGolden{
		{"uwcse/Original", "af1921a3e6a15e60", 1230, 3305, "a1c76df42380d371"},
		{"uwcse/4NF", "47ce626a01962861", 704, 2527, "070d9d07c3882423"},
		{"uwcse/Denormalized-1", "35dd645e065eaa6c", 450, 2210, "faa64c322433e55e"},
		{"uwcse/Denormalized-2", "6060dd62b545d47a", 254, 1887, "5b3eba86030f12b5"},
		{"hiv/Initial", "0d41dd4c9cadee3f", 2928, 6597, "53d3211be95a599f"},
		{"hiv/4NF-1", "f2c924451179b440", 0, 2802, "29beec11e3547efb"},
		{"hiv/4NF-2", "88126d762c76eb52", 3904, 7862, "c74964ca820c7bf7"},
		{"imdb/JMDB", "b63900cdf141d923", 4897, 12566, "674df8877ee7cdf9"},
		{"imdb/Stanford", "31065031aa9d876b", 2017, 9671, "eb5bac0db22fb708"},
		{"imdb/Denormalized", "a1f3bef74383d362", 2880, 3503, "25ec607d788ffa1f"},
		{"uwcse/Original/no-stored-proc", "af1921a3e6a15e60", 1230, 3305, "a1c76df42380d371"},
		{"uwcse/Original/unindexed", "af1921a3e6a15e60", 1230, 3305, "11108e30063071fb"},
		{"uwcse/4NF/depth-1", "f1b07176e11df1a2", 639, 1458, "6a9bce751e24811e"},
		{"imdb/JMDB/max-vars-6", "aa27a1744aaf6260", 2181, 8580, "ace08dabfc0a3247"},
		{"uwcse/Denormalized-2/unknown-constants", "53932856a6f3f90b", 270, 1988, "ff9b047d77f161ed"},
	} {
		want[g.name] = g
	}

	type sweep struct {
		name   string
		ds     *datasets.Dataset
		schema string
		tweak  func(*ilp.Problem, *ilp.Params)
		extra  []logic.Atom
	}
	var sweeps []sweep
	for _, s := range []string{"Original", "4NF", "Denormalized-1", "Denormalized-2"} {
		sweeps = append(sweeps, sweep{name: "uwcse/" + s, ds: uwds, schema: s})
	}
	for _, s := range []string{"Initial", "4NF-1", "4NF-2"} {
		sweeps = append(sweeps, sweep{name: "hiv/" + s, ds: hivds, schema: s})
	}
	for _, s := range []string{"JMDB", "Stanford", "Denormalized"} {
		sweeps = append(sweeps, sweep{name: "imdb/" + s, ds: imdbds, schema: s})
	}
	sweeps = append(sweeps,
		sweep{name: "uwcse/Original/no-stored-proc", ds: uwds, schema: "Original",
			tweak: func(_ *ilp.Problem, p *ilp.Params) { p.UseStoredProc = false }},
		sweep{name: "uwcse/Original/unindexed", ds: uwds, schema: "Original",
			tweak: func(prob *ilp.Problem, _ *ilp.Params) { prob.Instance = unindexedCopy(t, prob.Instance) }},
		sweep{name: "uwcse/4NF/depth-1", ds: uwds, schema: "4NF",
			tweak: func(_ *ilp.Problem, p *ilp.Params) { p.Depth = 1 }},
		sweep{name: "imdb/JMDB/max-vars-6", ds: imdbds, schema: "JMDB",
			tweak: func(_ *ilp.Problem, p *ilp.Params) { p.Depth, p.MaxVars = 0, 6 }},
		sweep{name: "uwcse/Denormalized-2/unknown-constants", ds: uwds, schema: "Denormalized-2",
			extra: []logic.Atom{
				logic.GroundAtom(uwds.Target.Name, "nobody", "nobody_else"),
				logic.GroundAtom(uwds.Target.Name, uwds.Pos[0].Args[0].Name, "nobody"),
				logic.GroundAtom(uwds.Target.Name, "nobody", uwds.Pos[0].Args[1].Name),
			}},
	)
	for _, sw := range sweeps {
		prob, err := sw.ds.Problem(sw.schema)
		if err != nil {
			t.Fatal(err)
		}
		params := ilp.Defaults()
		params.Parallelism = 2
		if sw.tweak != nil {
			sw.tweak(prob, &params)
		}
		got, rendered := bottomGoldenSweep(prob, params, sw.extra...)
		got.name = sw.name
		if w := want[sw.name]; got != w {
			t.Errorf("%s:\n got  {%q, %q, %d, %d, %q}\n want {%q, %q, %d, %d, %q}\ntable statistics:\n%s",
				sw.name, got.name, got.clauses, got.chaseHops, got.scanned, got.stats,
				w.name, w.clauses, w.chaseHops, w.scanned, w.stats, rendered)
		}
	}
}
