package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// writeReport marshals a run report into dir and returns its path.
func writeReport(t *testing.T, dir, name string, counters map[string]int64, elapsed float64) string {
	t.Helper()
	r := obs.RunReport{
		Tool:           "castor",
		Dataset:        "UW-CSE",
		Learner:        "Castor",
		ElapsedSeconds: elapsed,
		Metrics:        obs.Report{Counters: counters},
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSelfDiffExitsZero(t *testing.T) {
	dir := t.TempDir()
	p := writeReport(t, dir, "run.json", map[string]int64{"coverage_tests": 228}, 1.5)
	var out, errw strings.Builder
	code := run([]string{"-watch", "coverage_tests,elapsed_seconds", p, p}, &out, &errw)
	if code != 0 {
		t.Fatalf("self diff exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "ok: all 2 watched metrics") {
		t.Errorf("missing ok line:\n%s", out.String())
	}
}

func TestRegressionExitsOne(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", map[string]int64{"coverage_tests": 100}, 1.0)
	newP := writeReport(t, dir, "new.json", map[string]int64{"coverage_tests": 300}, 1.0)
	var out, errw strings.Builder
	code := run([]string{"-watch", "coverage_tests", oldP, newP}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION: coverage_tests") {
		t.Errorf("missing regression line:\n%s", out.String())
	}
}

func TestWithinThresholdExitsZero(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", map[string]int64{"coverage_tests": 100}, 1.0)
	newP := writeReport(t, dir, "new.json", map[string]int64{"coverage_tests": 105}, 1.0)
	var out, errw strings.Builder
	if code := run([]string{"-watch", "coverage_tests", "-threshold", "1.10", oldP, newP}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	// A tighter threshold flips the same pair into a regression.
	if code := run([]string{"-watch", "coverage_tests", "-threshold", "1.01", oldP, newP}, &out, &errw); code != 1 {
		t.Fatal("tight threshold did not gate")
	}
}

func TestUnwatchedChangesNeverFail(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", map[string]int64{"coverage_tests": 1}, 1.0)
	newP := writeReport(t, dir, "new.json", map[string]int64{"coverage_tests": 1000}, 50.0)
	var out, errw strings.Builder
	if code := run([]string{oldP, newP}, &out, &errw); code != 0 {
		t.Fatalf("report-only mode exit = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "coverage_tests") {
		t.Errorf("diff table missing changed metric:\n%s", out.String())
	}
}

func TestUsageAndReadErrorsExitTwo(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"only-one.json"}, &out, &errw); code != 2 {
		t.Errorf("one arg: exit = %d, want 2", code)
	}
	if code := run([]string{"a.json", "b.json"}, &out, &errw); code != 2 {
		t.Errorf("missing files: exit = %d, want 2", code)
	}
	dir := t.TempDir()
	p := writeReport(t, dir, "run.json", map[string]int64{"coverage_tests": 1}, 1.0)
	if code := run([]string{"-watch", "no_such_metric", p, p}, &out, &errw); code != 2 {
		t.Errorf("unknown watched metric: exit = %d, want 2", code)
	}
}

// writeReportFull is writeReport with histograms and gauges too.
func writeReportFull(t *testing.T, dir, name string, m obs.Report, elapsed float64) string {
	t.Helper()
	b, err := json.Marshal(obs.RunReport{Tool: "castor", ElapsedSeconds: elapsed, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPerMetricThresholds(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReportFull(t, dir, "old.json", obs.Report{
		Counters:   map[string]int64{"coverage_tests": 100},
		Histograms: map[string]obs.HistStat{"span_score_batch": {Count: 10, P50: 0.001, P95: 0.002, P99: 0.004}},
	}, 1.0)
	newP := writeReportFull(t, dir, "new.json", obs.Report{
		Counters:   map[string]int64{"coverage_tests": 115},
		Histograms: map[string]obs.HistStat{"span_score_batch": {Count: 10, P50: 0.001, P95: 0.002, P99: 0.006}},
	}, 1.0)

	// Global threshold 1.10 would fail both; per-metric overrides admit the
	// counter at 1.2× and the p99 at 2×.
	var out, errw strings.Builder
	code := run([]string{"-watch", "coverage_tests=1.2,hist_span_score_batch_p99=2.0", oldP, newP}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	// Tighten just the histogram percentile: only it regresses.
	out.Reset()
	errw.Reset()
	code = run([]string{"-watch", "coverage_tests=1.2,hist_span_score_batch_p99=1.2", oldP, newP}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION: hist_span_score_batch_p99") ||
		strings.Contains(out.String(), "REGRESSION: coverage_tests") {
		t.Errorf("wrong regression set:\n%s", out.String())
	}
	// Malformed threshold: usage error.
	if code := run([]string{"-watch", "coverage_tests=abc", oldP, newP}, &out, &errw); code != 2 {
		t.Errorf("bad threshold: exit = %d, want 2", code)
	}
}

func TestFamilyMismatchExitsTwo(t *testing.T) {
	dir := t.TempDir()
	// "subsumption_probe_ns" is a counter in the old report but a gauge in
	// the new: same flat name, different family — a schema mismatch the
	// gate must refuse to compare, watched or not.
	oldP := writeReportFull(t, dir, "old.json", obs.Report{
		Counters: map[string]int64{"subsumption_probe_ns": 5000},
	}, 1.0)
	newP := writeReportFull(t, dir, "new.json", obs.Report{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{"subsumption_probe_ns": 5000},
	}, 1.0)
	var out, errw strings.Builder
	code := run([]string{oldP, newP}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(errw.String(), `metric "subsumption_probe_ns" is a counter in the old report but a gauge in the new`) {
		t.Errorf("stderr lacks the mismatch explanation:\n%s", errw.String())
	}
	if !strings.Contains(out.String(), "SCHEMA MISMATCH: subsumption_probe_ns") {
		t.Errorf("stdout lacks the SCHEMA MISMATCH line:\n%s", out.String())
	}
}

func TestHistogramPercentilesAndGaugesDiff(t *testing.T) {
	dir := t.TempDir()
	rep := obs.Report{
		Counters:   map[string]int64{"coverage_tests": 10},
		Histograms: map[string]obs.HistStat{"span_coverage_batch": {Count: 4, P50: 0.002, P95: 0.008, P99: 0.016}},
		Gauges:     map[string]float64{"rss_peak_bytes": 1 << 30},
	}
	p := writeReportFull(t, dir, "run.json", rep, 1.0)
	var out, errw strings.Builder
	code := run([]string{"-watch", "hist_span_coverage_batch_p95,rss_peak_bytes", p, p}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	for _, want := range []string{"hist_span_coverage_batch_p95", "rss_peak_bytes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff table missing %q:\n%s", want, out.String())
		}
	}
}

func TestWatchedMetricMissingFromOneReportExitsOne(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json",
		map[string]int64{"coverage_tests": 100, "bottom_clauses": 12}, 1.0)
	newP := writeReport(t, dir, "new.json",
		map[string]int64{"coverage_tests": 100}, 1.0)

	// Watched metric vanished from the new report: exit 1 with a message
	// naming the metric and the side it is missing from.
	var out, errw strings.Builder
	code := run([]string{"-watch", "bottom_clauses", oldP, newP}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(errw.String(), `watched metric "bottom_clauses" missing from the new report`) {
		t.Errorf("stderr lacks the missing-metric message:\n%s", errw.String())
	}
	if !strings.Contains(out.String(), "MISSING: bottom_clauses") {
		t.Errorf("stdout lacks the MISSING line:\n%s", out.String())
	}

	// Same pair the other way around: missing from the old report.
	out.Reset()
	errw.Reset()
	code = run([]string{"-watch", "bottom_clauses", newP, oldP}, &out, &errw)
	if code != 1 {
		t.Fatalf("reversed exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(errw.String(), `missing from the old report`) {
		t.Errorf("stderr lacks the old-side message:\n%s", errw.String())
	}

	// Unwatched metrics may appear or vanish freely.
	out.Reset()
	errw.Reset()
	if code := run([]string{"-watch", "coverage_tests", oldP, newP}, &out, &errw); code != 0 {
		t.Errorf("unwatched missing metric gated: exit = %d, want 0", code)
	}
}

func TestReportCeilingGate(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", map[string]int64{"coverage_tests": 100}, 1.0)
	newP := writeReport(t, dir, "new.json", map[string]int64{"coverage_tests": 150}, 1.0)
	var out, errw strings.Builder
	if code := run([]string{"-watch", "coverage_tests@<=200", oldP, newP}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, errw.String())
	}
	if code := run([]string{"-watch", "coverage_tests@<=120", oldP, newP}, &out, &errw); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}
