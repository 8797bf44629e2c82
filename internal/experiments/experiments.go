// Package experiments regenerates every table and figure of the paper's
// evaluation (§9): Table 2 (dataset statistics), Table 9 (HIV), Table 10
// (UW-CSE), Table 11 (IMDb), Table 12 (subset-IND Castor), Table 13
// (stored procedures), Figure 2 (parallel coverage testing), and Figure 3
// (A2 query complexity). Each runner returns structured rows and can
// render them as a text table resembling the paper's.
//
// Absolute numbers are not comparable to the paper (the datasets are
// scaled synthetic equivalents — see DESIGN.md); the comparisons to make
// are within a table: which learner is schema independent, which schema
// breaks which learner, where time goes.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Config controls experiment scale so the full suite can run in seconds
// (unit tests), minutes (default CLI) or longer (closer to the paper).
type Config struct {
	// Scale multiplies dataset sizes; 1.0 is the laptop default.
	Scale float64
	// Folds overrides the cross-validation fold count (0 = per-table
	// default).
	Folds int
	// Parallelism for Castor's coverage tests.
	Parallelism int
	// Seed drives all generators and samplers.
	Seed int64
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
	// Obs is the instrumentation run every learner invocation reports
	// into; nil observes nothing. All runs of an experiment suite share
	// one registry, so the counters aggregate across tables.
	Obs *obs.Run
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) scaled(n int) int {
	if c.Scale <= 0 {
		return n
	}
	v := int(float64(n) * c.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

func (c Config) folds(def int) int {
	if c.Folds > 0 {
		return c.Folds
	}
	return def
}

// Row is one learner×variant result: averaged test precision/recall over
// the folds plus total wall-clock learning time.
type Row struct {
	Dataset   string
	Variant   string
	Algorithm string
	Precision float64
	Recall    float64
	Seconds   float64
	// Learned is the definition from the first fold, for inspection.
	Learned *logic.Definition
	// Err records a learner failure ("-" rows in the paper).
	Err string
}

// runCV cross-validates one learner on one variant of a dataset.
func runCV(cfg Config, ds *datasets.Dataset, variant string, learner ilp.Learner, params ilp.Params, folds int) Row {
	row := Row{Dataset: ds.Name, Variant: variant, Algorithm: learner.Name()}
	prob, err := ds.Problem(variant)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	params.Parallelism = cfg.Parallelism
	params.Obs = cfg.Obs
	fs := eval.KFold(cfg.Seed, ds.Pos, ds.Neg, folds)
	var ms []eval.Metrics
	start := time.Now()
	for _, f := range fs {
		p := *prob
		p.Pos, p.Neg = f.TrainPos, f.TrainNeg
		def, err := learner.Learn(&p, params)
		if err != nil {
			row.Err = err.Error()
			return row
		}
		if row.Learned == nil {
			row.Learned = def
		}
		ms = append(ms, eval.Evaluate(prob.Instance, def, f.TestPos, f.TestNeg))
	}
	row.Seconds = time.Since(start).Seconds()
	avg := eval.Average(ms)
	row.Precision, row.Recall = avg.Precision, avg.Recall
	return row
}

// RenderRows prints rows grouped like the paper's tables: one block per
// algorithm, one column per variant.
func RenderRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "== %s ==\n", title)
	// Collect variant order and algorithm order as first seen.
	var variants, algos []string
	seenV, seenA := map[string]bool{}, map[string]bool{}
	for _, r := range rows {
		if !seenV[r.Variant] {
			seenV[r.Variant] = true
			variants = append(variants, r.Variant)
		}
		if !seenA[r.Algorithm] {
			seenA[r.Algorithm] = true
			algos = append(algos, r.Algorithm)
		}
	}
	cell := func(algo, variant, metric string) string {
		for _, r := range rows {
			if r.Algorithm != algo || r.Variant != variant {
				continue
			}
			if r.Err != "" {
				return "-"
			}
			switch metric {
			case "P":
				return fmt.Sprintf("%.2f", r.Precision)
			case "R":
				return fmt.Sprintf("%.2f", r.Recall)
			default:
				return fmt.Sprintf("%.2f", r.Seconds)
			}
		}
		return ""
	}
	fmt.Fprintf(w, "%-22s %-10s", "Algorithm", "Metric")
	for _, v := range variants {
		fmt.Fprintf(w, " %14s", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 34+15*len(variants)))
	for _, a := range algos {
		for _, metric := range []string{"P", "R", "T"} {
			label := map[string]string{"P": "Precision", "R": "Recall", "T": "Time (s)"}[metric]
			fmt.Fprintf(w, "%-22s %-10s", a, label)
			for _, v := range variants {
				fmt.Fprintf(w, " %14s", cell(a, v, metric))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}
