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
//	obsreport -attrib old.json new.json               # rank span kinds by Δself
//	obsreport -attrib -attrib-top negative_reduction \
//	          old.json new.json                       # gate: that kind ranks first
//	obsreport -format json ...                        # machine-readable, any mode
//
// Metric names are the flattened namespace of the run report: counters
// keep their report names (coverage_tests, subsumption_nodes, …), span
// aggregates become span_<name>_seconds and span_<name>_calls, histogram
// percentiles become hist_<name>_p50/_p95/_p99/_count (span kinds as
// hist_span_<name>_*), gauges (rss_peak_bytes, …) keep their names,
// elapsed_seconds and the definition_* stats are included,
// timeline digests appear as timeline_<series>_{mean,min,max,last,count},
// and the attribution table as attrib_<kind>_{self_ns,cum_ns,crit_ns,pct}.
// A -watch entry may carry its own threshold as name=ratio; entries
// without one use -threshold. Three more gate shapes:
// name>=ratio requires the new/old ratio to stay at or above ratio (a
// minimum, for metrics that must not drop — cache hit counts, busy
// ratios), name@>=value requires the new report's absolute value to
// be at least value, ignoring the baseline entirely (so a utilization
// floor like timeline_pool_busy_ratio_mean@>=0.6 works even against a
// baseline from before the series existed), and name@<=value is the
// matching absolute ceiling (pool_straggler_ratio@<=4). Exit status: 0
// when no watched metric regresses, 1
// on a regression or when a watched metric is present in only one of the
// two reports, 2 on usage or read errors — including a watched metric
// absent from both reports, and a metric whose family differs between the
// reports (say a counter in one and a histogram percentile in the other):
// such values are not comparable, and obsreport refuses to diff them
// rather than silently passing.
//
// -attrib mode diffs the reports' span-graph attribution tables instead
// (see attrib.go); -format json switches every mode to one JSON object on
// stdout so CI can annotate PRs without parsing text tables.
package main

import (
	"encoding/json"
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
	watch := fs.String("watch", "", "comma-separated metrics to gate on: name, name=maxratio, name>=minratio, name@>=floor, or name@<=ceiling (empty: report only, never fail)")
	threshold := fs.Float64("threshold", 1.10, "max allowed new/old ratio for watched metrics without their own =threshold")
	all := fs.Bool("all", false, "print unchanged metrics too")
	attrib := fs.Bool("attrib", false, "diff the reports' span-graph attribution tables and rank span kinds by self-time delta (see attrib.go)")
	attribTop := fs.String("attrib-top", "", "with -attrib: fail (exit 1) unless this span kind ranks first by self-time delta")
	format := fs.String("format", "text", "output format: text or json (one machine-readable object on stdout)")
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: obsreport [-watch 'm1,m2=1.5,m3>=0.9,m4@>=0.6,m5@<=4'] [-threshold 1.10] [-all] [-format text|json] old.json new.json")
		fmt.Fprintln(errw, "       obsreport -attrib [-attrib-top kind] [-watch 'kind=1.5,...'] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(errw, "obsreport: unknown -format %q (have text, json)\n", *format)
		return 2
	}
	if *attrib {
		return runAttrib(*watch, *threshold, *attribTop, *format, fs.Arg(0), fs.Arg(1), out, errw)
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
	text := *format == "text"

	deltas := obs.DiffRunReports(oldRep, newRep)
	if text {
		fmt.Fprintf(out, "old: %s (%s %s %s)\n", fs.Arg(0), oldRep.Tool, oldRep.Dataset, oldRep.Learner)
		fmt.Fprintf(out, "new: %s (%s %s %s)\n\n", fs.Arg(1), newRep.Tool, newRep.Dataset, newRep.Learner)
		fmt.Fprintf(out, "%-36s %14s %14s %8s\n", "metric", "old", "new", "ratio")
	}
	var regressions, missing, mismatched []string
	var jsonRows []reportJSONRow
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
		needsOld := !isWatched(d.Name) || watched[d.Name].needsBaseline()
		if isWatched(d.Name) && ((needsOld && !d.InOld) || !d.InNew) {
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
		if text {
			mark := " "
			switch {
			case regressed:
				mark = "!"
			case isWatched(d.Name):
				mark = "*"
			}
			fmt.Fprintf(out, "%-36s %14s %14s %7s %s\n",
				d.Name, num(d.Old), num(d.New), ratio(d.Ratio), mark)
		} else {
			jsonRows = append(jsonRows, reportJSONRow{
				Name: d.Name, Old: d.Old, New: d.New, Ratio: finiteOrNil(d.Ratio),
				InOld: d.InOld, InNew: d.InNew,
				Watched: isWatched(d.Name), Regressed: regressed,
			})
		}
	}
	for name := range watched {
		if !seen[name] {
			fmt.Fprintf(errw, "obsreport: watched metric %q absent from both reports\n", name)
			return 2
		}
	}
	exit := 0
	switch {
	case len(mismatched) > 0:
		exit = 2
	case len(missing) > 0 || len(regressions) > 0:
		exit = 1
	}
	if !text {
		writeJSON(out, reportJSONDoc{
			Mode: "report", Old: fs.Arg(0), New: fs.Arg(1),
			Rows: jsonRows, Regressions: regressions, Missing: missing,
			Mismatched: mismatched, Exit: exit,
		})
		return exit
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

// reportJSONRow / reportJSONDoc are the -format json shapes of report mode.
type reportJSONRow struct {
	Name      string   `json:"name"`
	Old       float64  `json:"old"`
	New       float64  `json:"new"`
	Ratio     *float64 `json:"ratio,omitempty"` // omitted when the baseline is 0 (infinite)
	InOld     bool     `json:"in_old"`
	InNew     bool     `json:"in_new"`
	Watched   bool     `json:"watched,omitempty"`
	Regressed bool     `json:"regressed,omitempty"`
}

type reportJSONDoc struct {
	Mode        string          `json:"mode"`
	Old         string          `json:"old"`
	New         string          `json:"new"`
	Rows        []reportJSONRow `json:"rows"`
	Regressions []string        `json:"regressions,omitempty"`
	Missing     []string        `json:"missing,omitempty"`
	Mismatched  []string        `json:"mismatched,omitempty"`
	Exit        int             `json:"exit"`
}

// finiteOrNil drops non-finite ratios (zero baselines) from JSON output,
// where Inf has no representation.
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// writeJSON emits one indented JSON document on out.
func writeJSON(out io.Writer, doc any) {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // stdout write failure has no recovery here
}

// parseReportGates splits a -watch string into per-metric gates. Entries
// without an explicit bound gate at defThreshold as a max ratio.
func parseReportGates(watch string, defThreshold float64) (map[string]reportGate, error) {
	watched := make(map[string]reportGate)
	for _, w := range strings.Split(watch, ",") {
		if w = strings.TrimSpace(w); w == "" {
			continue
		}
		g := reportGate{op: gateMaxRatio, val: defThreshold}
		name := w
		cut := func(sep string) (string, bool) {
			i := strings.Index(w, sep)
			if i < 0 {
				return "", false
			}
			name = strings.TrimSpace(w[:i])
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(w[i+len(sep):]), "%g", &v); err != nil || name == "" {
				return "", false
			}
			g.val = v
			return name, true
		}
		switch {
		case strings.Contains(w, "@>="):
			g.op = gateFloor
			if _, ok := cut("@>="); !ok {
				return nil, fmt.Errorf("bad -watch entry %q (want name@>=value)", w)
			}
		case strings.Contains(w, "@<="):
			g.op = gateCeiling
			if _, ok := cut("@<="); !ok {
				return nil, fmt.Errorf("bad -watch entry %q (want name@<=value)", w)
			}
		case strings.Contains(w, ">="):
			g.op = gateMinRatio
			if _, ok := cut(">="); !ok {
				return nil, fmt.Errorf("bad -watch entry %q (want name>=ratio)", w)
			}
		case strings.IndexByte(w, '=') >= 0:
			if _, ok := cut("="); !ok {
				return nil, fmt.Errorf("bad -watch entry %q (want name or name=threshold)", w)
			}
		}
		watched[name] = g
	}
	return watched, nil
}

// reportGate is one -watch entry's acceptance rule.
type reportGate struct {
	op  int
	val float64
}

const (
	gateMaxRatio = iota // new/old must stay ≤ val (regressions up)
	gateMinRatio        // new/old must stay ≥ val (regressions down)
	gateFloor           // the new value itself must be ≥ val
	gateCeiling         // the new value itself must be ≤ val
)

// needsBaseline reports whether the gate compares against the old report
// (ratio gates) or only inspects the new value (absolute gates).
func (g reportGate) needsBaseline() bool {
	return g.op != gateFloor && g.op != gateCeiling
}

// fails reports whether the delta violates the gate.
func (g reportGate) fails(d obs.MetricDelta) bool {
	switch g.op {
	case gateMinRatio:
		return d.Ratio < g.val
	case gateFloor:
		return d.New < g.val
	case gateCeiling:
		return d.New > g.val
	default:
		return d.Ratio > g.val
	}
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
