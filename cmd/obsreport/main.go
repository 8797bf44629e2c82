// Command obsreport compares two run reports written with -report and
// prints a metric-by-metric diff. With -watch it acts as a regression
// gate: it exits nonzero when any watched metric in the new report exceeds
// the old value by more than -threshold, which is how CI compares a
// branch's run against a baseline artifact.
//
// Usage:
//
//	obsreport old.json new.json                       # full diff table
//	obsreport -watch elapsed_seconds,coverage_tests \
//	          -threshold 1.10 old.json new.json       # gate: new ≤ 1.10×old
//	obsreport -watch 'elapsed_seconds=1.5,hist_span_score_batch_p99=2.0' \
//	          old.json new.json                       # per-metric thresholds
//
// Metric names are the flattened namespace of the run report: counters
// keep their report names (coverage_tests, subsumption_nodes, …), span
// aggregates become span_<name>_seconds and span_<name>_calls, histogram
// percentiles become hist_<name>_p50/_p95/_p99/_count (span kinds as
// hist_span_<name>_*), gauges (rss_peak_bytes, pool_busy_ratio, …) keep
// their names, store statistics become relstore_<rel>_<stat> plus
// relstore_<stat> totals, and elapsed_seconds and the definition_* stats
// are included. A -watch entry may carry its own threshold as name=ratio;
// entries without one use -threshold. name@<=value is an absolute ceiling
// on the new report's value that ignores the baseline
// (rss_peak_bytes@<=88000000). Exit status: 0 when no watched metric
// regresses, 1 on a regression or when a watched metric is present in
// only one of the two reports, 2 on usage or read errors — including a
// watched metric absent from both reports, and a metric whose family
// differs between the reports (say a counter in one and a histogram
// percentile in the other): such values are not comparable, and obsreport
// refuses to diff them rather than silently passing.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("obsreport", flag.ContinueOnError)
	fs.SetOutput(errw)
	watch := fs.String("watch", "", "comma-separated metrics to gate on: name, name=maxratio, or name@<=ceiling (empty: report only, never fail)")
	threshold := fs.Float64("threshold", 1.10, "max allowed new/old ratio for watched metrics without their own =threshold")
	all := fs.Bool("all", false, "print unchanged metrics too")
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: obsreport [-watch 'm1,m2=1.5,m3@<=4'] [-threshold 1.10] [-all] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldRep, err := obs.LoadRunReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errw, "obsreport:", err)
		return 2
	}
	newRep, err := obs.LoadRunReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(errw, "obsreport:", err)
		return 2
	}

	watched, err := parseReportGates(*watch, *threshold)
	if err != nil {
		fmt.Fprintln(errw, "obsreport:", err)
		return 2
	}
	isWatched := func(name string) bool { _, ok := watched[name]; return ok }

	deltas := obs.DiffRunReports(oldRep, newRep)
	fmt.Fprintf(out, "old: %s (%s %s %s)\n", fs.Arg(0), oldRep.Tool, oldRep.Dataset, oldRep.Learner)
	fmt.Fprintf(out, "new: %s (%s %s %s)\n\n", fs.Arg(1), newRep.Tool, newRep.Dataset, newRep.Learner)
	fmt.Fprintf(out, "%-36s %14s %14s %8s\n", "metric", "old", "new", "ratio")
	var regressions, missing, mismatched []string
	seen := make(map[string]bool)
	for _, d := range deltas {
		seen[d.Name] = true
		if d.FamilyMismatch() {
			// Same flat name, different metric family in each report — the
			// values mean different things, so comparing (or gating) them
			// would be garbage. This is a schema error, not a regression.
			fmt.Fprintf(errw, "obsreport: metric %q is a %s in the old report but a %s in the new — not comparable\n",
				d.Name, d.FamilyOld, d.FamilyNew)
			mismatched = append(mismatched, d.Name)
			continue
		}
		if g, ok := watched[d.Name]; ok && ((!g.ceiling && !d.InOld) || !d.InNew) {
			// A watched metric present in only one report is a reportable
			// difference, not a usage error: the run stopped (or started)
			// emitting it. Gate on it explicitly rather than letting the
			// absent side read as a zero.
			side := "old"
			if !d.InNew {
				side = "new"
			}
			fmt.Fprintf(errw, "obsreport: watched metric %q missing from the %s report (old=%s new=%s)\n",
				d.Name, side, num(d.Old), num(d.New))
			missing = append(missing, d.Name)
		}
		regressed := isWatched(d.Name) && watched[d.Name].fails(d)
		if regressed {
			regressions = append(regressions, d.Name)
		}
		if !*all && d.Old == d.New && !isWatched(d.Name) {
			continue // unchanged and unwatched: noise in the default view
		}
		mark := " "
		switch {
		case regressed:
			mark = "!"
		case isWatched(d.Name):
			mark = "*"
		}
		fmt.Fprintf(out, "%-36s %14s %14s %7s %s\n",
			d.Name, num(d.Old), num(d.New), ratio(d.Ratio), mark)
	}
	for name := range watched {
		if !seen[name] {
			fmt.Fprintf(errw, "obsreport: watched metric %q absent from both reports\n", name)
			return 2
		}
	}
	if len(mismatched) > 0 {
		fmt.Fprintf(out, "\nSCHEMA MISMATCH: %s changed metric family between the reports\n",
			strings.Join(mismatched, ", "))
		return 2
	}
	if len(missing) > 0 {
		fmt.Fprintf(out, "\nMISSING: %s absent from one report\n", strings.Join(missing, ", "))
		return 1
	}
	if len(regressions) > 0 {
		fmt.Fprintf(out, "\nREGRESSION: %s exceeded their thresholds against the baseline\n",
			strings.Join(regressions, ", "))
		return 1
	}
	if len(watched) > 0 {
		fmt.Fprintf(out, "\nok: all %d watched metrics within threshold of the baseline\n",
			len(watched))
	}
	return 0
}

// parseReportGates splits a -watch string into per-metric gates. Entries
// without an explicit bound gate at defThreshold as a max ratio.
func parseReportGates(watch string, defThreshold float64) (map[string]reportGate, error) {
	watched := make(map[string]reportGate)
	for _, w := range strings.Split(watch, ",") {
		if w = strings.TrimSpace(w); w == "" {
			continue
		}
		g := reportGate{val: defThreshold}
		name, bound, ok := strings.Cut(w, "@<=")
		if ok {
			g.ceiling = true
		} else {
			name, bound, ok = strings.Cut(w, "=")
		}
		name = strings.TrimSpace(name)
		if ok {
			if _, err := fmt.Sscanf(strings.TrimSpace(bound), "%g", &g.val); err != nil || name == "" {
				return nil, fmt.Errorf("bad -watch entry %q (want name, name=threshold or name@<=value)", w)
			}
		}
		watched[name] = g
	}
	return watched, nil
}

// reportGate is one -watch entry's acceptance rule: new/old must stay at
// or below val, or with ceiling the new value itself must.
type reportGate struct {
	val     float64
	ceiling bool
}

// fails reports whether the delta violates the gate.
func (g reportGate) fails(d obs.MetricDelta) bool {
	if g.ceiling {
		return d.New > g.val
	}
	return d.Ratio > g.val
}

// num formats a metric value compactly: integers without a fraction,
// timings with enough digits to compare.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// ratio renders new/old, tolerating the +Inf of a zero baseline.
func ratio(r float64) string {
	if math.IsInf(r, 1) {
		return "+inf"
	}
	return fmt.Sprintf("%.3fx", r)
}
