package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ilp"
)

// TestRunWritesMetricsAndTrace drives the full CLI pipeline (uwcse,
// Castor) and checks the acceptance contract of the -report and -trace
// flags: the report's metrics object is valid JSON with nonzero
// coverage-test and cache-hit counters and the coverage span kinds, and
// every trace line is a standalone JSON span object.
func TestRunWritesMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	o := options{
		dataset: "uwcse", learner: "castor", coverage: "auto",
		sample: 4, beam: 2, clauseLength: 10, par: 2, seed: 1,
		reportFile: filepath.Join(dir, "run.json"),
		traceFile:  filepath.Join(dir, "trace.jsonl"),
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "learned definition") {
		t.Errorf("run output missing the definition:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "run metrics:") {
		t.Error("run output missing the metrics summary")
	}

	rf, err := os.ReadFile(o.reportFile)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
			Spans    map[string]struct {
				Seconds float64 `json:"seconds"`
				Calls   int64   `json:"calls"`
			} `json:"spans"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(rf, &report); err != nil {
		t.Fatalf("report file does not parse: %v", err)
	}
	m := report.Metrics
	for _, key := range []string{"coverage_tests", "coverage_tests_skipped", "tuples_scanned", "bottom_clauses"} {
		if m.Counters[key] == 0 {
			t.Errorf("metrics counter %s is zero: %v", key, m.Counters)
		}
	}
	if m.Spans["coverage_batch"].Calls+m.Spans["score_batch"].Calls == 0 {
		t.Error("metrics report has no coverage_batch or score_batch spans")
	}

	tf, err := os.Open(o.traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	spans := 0
	sc := bufio.NewScanner(tf)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("trace line %q does not parse: %v", sc.Text(), err)
		}
		if _, ok := obj["span"].(string); !ok {
			t.Fatalf("trace line %q is not a span line", sc.Text())
		}
		spans++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if spans == 0 {
		t.Error("trace file has no span lines")
	}
}

func TestCoverageModeFlag(t *testing.T) {
	cases := []struct {
		flag     string
		userData bool
		dataset  string
		want     ilp.CoverageMode
		wantErr  bool
	}{
		{"direct", false, "hiv", ilp.CoverageDB, false},
		{"subsumption", false, "uwcse", ilp.CoverageSubsumption, false},
		{"auto", false, "uwcse", ilp.CoverageDB, false},
		{"auto", false, "hiv", ilp.CoverageSubsumption, false},
		{"auto", false, "imdb", ilp.CoverageSubsumption, false},
		// User data must not inherit the -dataset heuristic (the old bug:
		// -schema runs picked subsumption because -dataset defaulted free).
		{"auto", true, "hiv", ilp.CoverageDB, false},
		{"", true, "imdb", ilp.CoverageDB, false},
		{"subsumption", true, "uwcse", ilp.CoverageSubsumption, false},
		{"bogus", false, "uwcse", 0, true},
	}
	for _, c := range cases {
		got, err := coverageMode(c.flag, c.userData, c.dataset)
		if c.wantErr {
			if err == nil {
				t.Errorf("coverageMode(%q, %v, %q): want error", c.flag, c.userData, c.dataset)
			}
			continue
		}
		if err != nil {
			t.Errorf("coverageMode(%q, %v, %q): %v", c.flag, c.userData, c.dataset, err)
			continue
		}
		if got != c.want {
			t.Errorf("coverageMode(%q, %v, %q) = %v, want %v", c.flag, c.userData, c.dataset, got, c.want)
		}
	}
}

// TestLoadUserProblemValidatesData checks that user data is validated
// against its schema's constraints at load: data violating a declared IND
// fails to load with an error naming the IND and the missing value, and
// data satisfying it loads.
func TestLoadUserProblemValidatesData(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	schema := write("schema.txt", "rel student(stud)\nrel ta(course, stud)\nind ta[stud] <= student[stud]\n")
	pos := write("pos.pl", "advisedBy(ann).\n")
	for _, tc := range []struct {
		name, data, wantErr string
	}{
		{"violates", "student(ann).\nta(c1, ann).\nta(c2, bob).\n", "ta[stud] <= student[stud]: value \"bob\" missing from student[stud]"},
		{"satisfies", "student(ann).\nstudent(bob).\nta(c1, ann).\nta(c2, bob).\n", ""},
	} {
		data := write(tc.name+".pl", tc.data)
		prob, err := loadUserProblem(schema, data, pos, "", "advisedBy(stud)", "")
		if tc.wantErr == "" {
			if err != nil || prob == nil || len(prob.Pos) != 1 {
				t.Errorf("%s: load = %v, %v; want the problem", tc.name, prob, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: load error = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
