package experiments

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/datasets"
	"repro/internal/loganh"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/transform"
)

// Figure2Row is one point of the parallelization sweep.
type Figure2Row struct {
	Dataset string
	Threads int
	Seconds float64
}

// Figure2 measures Castor's learning time as the coverage-test worker pool
// grows (§9.3, Figure 2): HIV benefits, IMDb does not (its time is spent
// building ground bottom clauses, not in coverage tests). Each point is the
// fastest of three learns. The default sweep is the powers of two up to
// runtime.NumCPU(), plus NumCPU itself: workers beyond the hardware
// threads only measure oversubscription.
func Figure2(cfg Config, threads []int) ([]Figure2Row, error) {
	if len(threads) == 0 {
		threads = figure2Threads(runtime.NumCPU())
	}
	var rows []Figure2Row
	w := cfg.out()
	fmt.Fprintln(w, "== Figure 2: Castor running time vs coverage-test threads ==")
	for _, part := range []struct {
		name  string
		build func(Config) (*datasets.Dataset, error)
	}{
		{"HIV-Large", hivLargeDataset},
		{"HIV-2K4K", hiv2k4kDataset},
		{"IMDb", imdbDataset},
	} {
		ds, err := part.build(cfg)
		if err != nil {
			return nil, err
		}
		prob, err := ds.Problem(ds.Variants[0].Name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-10s:", part.name)
		for _, th := range threads {
			params := castorParams()
			params.Parallelism = th
			params.Obs = cfg.Obs
			sec, _, err := fastestLearn(prob, params)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Figure2Row{Dataset: part.name, Threads: th, Seconds: sec})
			fmt.Fprintf(w, "  %d→%.2fs", th, sec)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return rows, nil
}

// figure2Threads is the default Figure 2 sweep over n hardware threads:
// 1, 2, 4, … up to n, then n itself when it is not a power of two.
func figure2Threads(n int) []int {
	var out []int
	for t := 1; t <= n; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// Figure3Row is one averaged query-count measurement.
type Figure3Row struct {
	Variant  string
	NumVars  int
	AvgEQs   float64
	AvgMQs   float64
	Exact    int // how many of the runs learned the exact definition
	Attempts int
}

// Figure3 reproduces the A2 query-complexity study (§9.4): random Horn
// definitions are generated over the Denormalized-2 UW-CSE schema,
// transformed to the other schemas by vertical decomposition, and learned
// by the query-based learner under each schema. EQ counts stay flat across
// schemas; MQ counts grow with decomposition and with the number of
// variables.
func Figure3(cfg Config, defsPerSetting int, varCounts []int) ([]Figure3Row, error) {
	if defsPerSetting <= 0 {
		defsPerSetting = 10
	}
	if len(varCounts) == 0 {
		varCounts = []int{4, 5, 6, 7, 8}
	}
	original := datasets.UWCSEOriginalSchema()
	variantNames := []string{"Denormalized-2", "Denormalized-1", "4NF", "Original"}
	// Pipeline Original→Denormalized-2 and its inverse (the decomposition
	// Denormalized-2→Original).
	toD2, err := datasets.UWCSEPipelineTo(original, "Denormalized-2")
	if err != nil {
		return nil, err
	}
	fromD2 := toD2.Inverse()
	d2Schema := toD2.To()

	// mapTo maps a definition over Denormalized-2 to the named variant.
	pipeTo := map[string]*transform.Pipeline{}
	for _, name := range variantNames[:len(variantNames)-1] {
		if name == "Denormalized-2" {
			continue
		}
		p, err := datasets.UWCSEPipelineTo(original, name)
		if err != nil {
			return nil, err
		}
		pipeTo[name] = p
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 500))
	var rows []Figure3Row
	w := cfg.out()
	fmt.Fprintln(w, "== Figure 3: A2 average EQs / MQs per schema and #variables ==")
	fmt.Fprintf(w, "%-16s %6s %10s %10s %8s\n", "Schema", "#vars", "avg EQs", "avg MQs", "exact")

	for _, nv := range varCounts {
		type agg struct {
			eqs, mqs, exact, attempts int
		}
		aggs := map[string]*agg{}
		for _, name := range variantNames {
			aggs[name] = &agg{}
		}
		for d := 0; d < defsPerSetting; d++ {
			numClauses := 1 + rng.Intn(5)
			target, defD2 := loganh.GenerateDefinition(rng, d2Schema, loganh.GenSpec{
				NumClauses: numClauses,
				NumVars:    nv,
				MaxArity:   2,
			})
			// Map the definition to each schema: Denormalized-2 stays; the
			// others go through the inverse pipeline to Original and, for
			// the middle variants, forward again.
			defOrig, err := fromD2.MapDefinition(defD2)
			if err != nil {
				return nil, err
			}
			defs := map[string]*loganhDef{
				"Denormalized-2": {schema: d2Schema, def: defD2},
				"Original":       {schema: original, def: defOrig},
			}
			for name, p := range pipeTo {
				mapped, err := p.MapDefinition(defOrig)
				if err != nil {
					return nil, err
				}
				defs[name] = &loganhDef{schema: p.To(), def: mapped}
			}
			for _, name := range variantNames {
				ld := defs[name]
				a := aggs[name]
				a.attempts++
				oracle, err := loganh.NewOracle(ld.schema, target, ld.def)
				if err != nil {
					continue // definition not representable (should not happen)
				}
				_, stats, err := loganh.NewLearner().Learn(oracle, ld.schema, target)
				a.eqs += stats.EQs
				a.mqs += stats.MQs
				if err == nil && stats.Exact {
					a.exact++
				}
			}
		}
		for _, name := range variantNames {
			a := aggs[name]
			row := Figure3Row{Variant: name, NumVars: nv, Exact: a.exact, Attempts: a.attempts}
			if a.attempts > 0 {
				row.AvgEQs = float64(a.eqs) / float64(a.attempts)
				row.AvgMQs = float64(a.mqs) / float64(a.attempts)
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-16s %6d %10.1f %10.1f %5d/%d\n", name, nv, row.AvgEQs, row.AvgMQs, row.Exact, row.Attempts)
		}
	}
	fmt.Fprintln(w)
	return rows, nil
}

type loganhDef struct {
	schema *relstore.Schema
	def    *logic.Definition
}
