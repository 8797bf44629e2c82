package obs

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

func sampleReport(coverageTests int64, elapsed float64) *RunReport {
	reg := NewRegistry()
	reg.counters[CCoverageTests].Store(coverageTests)
	return &RunReport{
		Tool:           "castor",
		When:           time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
		Dataset:        "UW-CSE",
		Variant:        "Original",
		Learner:        "Castor",
		Target:         "advisedBy",
		Params:         map[string]any{"beam": 2},
		ElapsedSeconds: elapsed,
		Metrics:        reg.Snapshot(),
		Definition: &DefinitionStats{
			Clauses: 1, Literals: 2, TP: 14, FP: 3,
			Precision: 0.82, Recall: 1, F1: 0.9,
		},
	}
}

func TestRunReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	r := sampleReport(228, 1.5)
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != r.Tool || got.Learner != r.Learner || got.ElapsedSeconds != r.ElapsedSeconds {
		t.Errorf("round trip lost identity: %+v", got)
	}
	if got.Metrics.Counters["coverage_tests"] != 228 {
		t.Errorf("counters = %v", got.Metrics.Counters)
	}
	if got.Definition == nil || got.Definition.TP != 14 {
		t.Errorf("definition = %+v", got.Definition)
	}
}

func TestLoadRunReportErrors(t *testing.T) {
	if _, err := LoadRunReport(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file: want error")
	}
}

func TestDiffRunReports(t *testing.T) {
	old := sampleReport(100, 1.0)
	new_ := sampleReport(300, 2.0)
	deltas := DiffRunReports(old, new_)
	byName := make(map[string]MetricDelta, len(deltas))
	for i, d := range deltas {
		byName[d.Name] = d
		if i > 0 && deltas[i-1].Name >= d.Name {
			t.Fatalf("deltas not sorted: %q before %q", deltas[i-1].Name, d.Name)
		}
	}
	if d := byName["coverage_tests"]; d.Old != 100 || d.New != 300 || d.Ratio != 3 {
		t.Errorf("coverage_tests delta = %+v", d)
	}
	if d := byName["elapsed_seconds"]; d.Ratio != 2 {
		t.Errorf("elapsed_seconds delta = %+v", d)
	}
	if d := byName["definition_tp"]; d.Old != 14 || d.Ratio != 1 {
		t.Errorf("definition_tp delta = %+v", d)
	}
	// Zero → zero is ratio 1; zero → nonzero is +Inf.
	if d := byName["subsumption_calls"]; d.Ratio != 1 {
		t.Errorf("zero/zero ratio = %v, want 1", d.Ratio)
	}
	new_.Metrics.Counters["subsumption_calls"] = 5
	deltas = DiffRunReports(old, new_)
	for _, d := range deltas {
		if d.Name == "subsumption_calls" && !math.IsInf(d.Ratio, 1) {
			t.Errorf("zero→nonzero ratio = %v, want +Inf", d.Ratio)
		}
	}
}

func TestFlatMetricsNamespaces(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	run.Inc(CCoverageTests)
	run.StartSpan("learn").End()
	flat := reg.Snapshot().FlatMetrics()
	for _, key := range []string{
		"coverage_tests", "span_learn_seconds", "span_learn_calls",
		"hist_span_learn_p99", "hist_span_learn_count",
	} {
		if _, ok := flat[key]; !ok {
			t.Errorf("FlatMetrics missing %q", key)
		}
	}
	if flat["span_learn_calls"] != 1 {
		t.Errorf("span_learn_calls = %v, want 1", flat["span_learn_calls"])
	}
}
