package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// writeAttribReport marshals a run report carrying an attribution table.
// selves maps span kind → self time; cum/crit default to self.
func writeAttribReport(t *testing.T, dir, name string, selves map[string]time.Duration) string {
	t.Helper()
	a := &obs.AttribReport{}
	for kind, d := range selves {
		a.WallNS += int64(d)
		a.Rows = append(a.Rows, obs.AttribRow{
			Kind: kind, Count: 1, SelfNS: int64(d), CumNS: int64(d), CritNS: int64(d),
		})
	}
	for i := range a.Rows {
		a.Rows[i].Pct = 100 * float64(a.Rows[i].SelfNS) / float64(a.WallNS)
	}
	r := obs.RunReport{Tool: "castor", Dataset: "UW-CSE", Learner: "Castor", Attrib: a}
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

func TestAttribRanksInjectedSlowdownFirst(t *testing.T) {
	dir := t.TempDir()
	oldP := writeAttribReport(t, dir, "old.json", map[string]time.Duration{
		"learn":                   400 * time.Millisecond,
		"negative_reduction":      100 * time.Millisecond,
		"shard_candidate_scoring": 300 * time.Millisecond,
		"vanished_in_the_new_run": 5 * time.Millisecond,
	})
	newP := writeAttribReport(t, dir, "new.json", map[string]time.Duration{
		"learn":                   410 * time.Millisecond,
		"negative_reduction":      850 * time.Millisecond, // the injected slowdown
		"shard_candidate_scoring": 310 * time.Millisecond,
	})
	var out, errw strings.Builder
	code := run([]string{"-attrib", oldP, newP}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "top contributor: negative_reduction") {
		t.Errorf("missing top-contributor line:\n%s", out.String())
	}
	// Ranked by Δself: the injected kind's row prints before the others.
	iInj := strings.Index(out.String(), "negative_reduction")
	iLearn := strings.Index(out.String(), "learn ")
	if iInj < 0 || iLearn >= 0 && iInj > iLearn {
		t.Errorf("negative_reduction not ranked first:\n%s", out.String())
	}
}

func TestAttribTopGate(t *testing.T) {
	dir := t.TempDir()
	oldP := writeAttribReport(t, dir, "old.json", map[string]time.Duration{
		"learn": 100 * time.Millisecond, "negative_reduction": 100 * time.Millisecond,
	})
	newP := writeAttribReport(t, dir, "new.json", map[string]time.Duration{
		"learn": 105 * time.Millisecond, "negative_reduction": 400 * time.Millisecond,
	})
	var out, errw strings.Builder
	if code := run([]string{"-attrib", "-attrib-top", "negative_reduction", oldP, newP}, &out, &errw); code != 0 {
		t.Fatalf("matching top gate exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok: attribution gates passed") {
		t.Errorf("missing ok line:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-attrib", "-attrib-top", "learn", oldP, newP}, &out, &errw); code != 1 {
		t.Fatalf("mismatched top gate exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "TOP MISMATCH") {
		t.Errorf("missing TOP MISMATCH line:\n%s", out.String())
	}
	// Self-diff: no kind gains, so any expected top fails.
	out.Reset()
	if code := run([]string{"-attrib", "-attrib-top", "learn", oldP, oldP}, &out, &errw); code != 1 {
		t.Fatalf("no-delta top gate exit = %d, want 1\n%s", code, out.String())
	}
}

func TestAttribMissingTableExitsTwo(t *testing.T) {
	dir := t.TempDir()
	withA := writeAttribReport(t, dir, "with.json", map[string]time.Duration{"learn": time.Second})
	without := writeReport(t, dir, "without.json", map[string]int64{"coverage_tests": 1}, 1.0)
	var out, errw strings.Builder
	if code := run([]string{"-attrib", without, withA}, &out, &errw); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "no attribution table") {
		t.Errorf("missing diagnostic:\n%s", errw.String())
	}
	errw.Reset()
	if code := run([]string{"-attrib", withA, without}, &out, &errw); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestAttribWatchGatesOnSelfTime(t *testing.T) {
	dir := t.TempDir()
	oldP := writeAttribReport(t, dir, "old.json", map[string]time.Duration{
		"learn": 100 * time.Millisecond, "minimize": 100 * time.Millisecond,
	})
	newP := writeAttribReport(t, dir, "new.json", map[string]time.Duration{
		"learn": 100 * time.Millisecond, "minimize": 300 * time.Millisecond,
	})
	var out, errw strings.Builder
	// minimize tripled: a 1.5x ratio gate fails, a 4x one passes.
	if code := run([]string{"-attrib", "-watch", "minimize=1.5", oldP, newP}, &out, &errw); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION: minimize") {
		t.Errorf("missing regression line:\n%s", out.String())
	}
	if code := run([]string{"-attrib", "-watch", "minimize=4.0", oldP, newP}, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	// Absolute ceiling in seconds: new self 0.3s fails @<=0.2, passes @<=0.5.
	if code := run([]string{"-attrib", "-watch", "minimize@<=0.2", oldP, newP}, &out, &errw); code != 1 {
		t.Fatalf("ceiling exit = %d, want 1", code)
	}
	if code := run([]string{"-attrib", "-watch", "minimize@<=0.5", oldP, newP}, &out, &errw); code != 0 {
		t.Fatalf("ceiling exit = %d, want 0", code)
	}
	// A kind absent from both tables is a usage error.
	errw.Reset()
	if code := run([]string{"-attrib", "-watch", "no_such_kind", oldP, newP}, &out, &errw); code != 2 {
		t.Fatalf("unknown kind exit = %d, want 2\n%s", code, errw.String())
	}
}

func TestAttribFormatJSON(t *testing.T) {
	dir := t.TempDir()
	oldP := writeAttribReport(t, dir, "old.json", map[string]time.Duration{
		"learn": 100 * time.Millisecond, "negative_reduction": 100 * time.Millisecond,
	})
	newP := writeAttribReport(t, dir, "new.json", map[string]time.Duration{
		"learn": 100 * time.Millisecond, "negative_reduction": 350 * time.Millisecond,
	})
	var out, errw strings.Builder
	code := run([]string{"-attrib", "-attrib-top", "negative_reduction", "-format", "json", oldP, newP}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, errw.String())
	}
	var doc attribJSONDoc
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("-format json output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Mode != "attrib" || doc.Top != "negative_reduction" || doc.Exit != 0 {
		t.Errorf("doc = %+v", doc)
	}
	if doc.WallDeltaNS != int64(250*time.Millisecond) {
		t.Errorf("wall delta = %d, want 250ms", doc.WallDeltaNS)
	}
	if len(doc.Rows) != 2 || doc.Rows[0].Kind != "negative_reduction" {
		t.Errorf("rows = %+v, want negative_reduction first", doc.Rows)
	}
	if r := doc.Rows[0]; r.DeltaNS != int64(250*time.Millisecond) || r.Ratio == nil || *r.Ratio != 3.5 {
		t.Errorf("top row = %+v", r)
	}
}

func TestReportAndBenchFormatJSON(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", map[string]int64{"coverage_tests": 100}, 1.0)
	newP := writeReport(t, dir, "new.json", map[string]int64{"coverage_tests": 300}, 1.0)
	var out, errw strings.Builder
	code := run([]string{"-watch", "coverage_tests", "-format", "json", oldP, newP}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var doc reportJSONDoc
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("report json: %v\n%s", err, out.String())
	}
	if doc.Mode != "report" || doc.Exit != 1 || len(doc.Regressions) != 1 {
		t.Errorf("doc = %+v", doc)
	}
	var found bool
	for _, row := range doc.Rows {
		if row.Name == "coverage_tests" {
			found = true
			if !row.Watched || !row.Regressed || row.Ratio == nil || *row.Ratio != 3 {
				t.Errorf("row = %+v", row)
			}
		}
	}
	if !found {
		t.Errorf("no coverage_tests row in %+v", doc.Rows)
	}

	// Bench mode is gone: -bench is an unknown flag, a usage error.
	out.Reset()
	errw.Reset()
	if code := run([]string{"-bench", "-format", "json", oldP, newP}, &out, &errw); code != 2 {
		t.Fatalf("-bench exit = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "flag provided but not defined: -bench") {
		t.Errorf("-bench stderr = %q, want an unknown-flag error", errw.String())
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

func TestFormatFlagValidation(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-format", "yaml", "a.json", "b.json"}, &out, &errw); code != 2 {
		t.Fatalf("bad format exit = %d, want 2", code)
	}
	if code := run([]string{"-cpus", "4", "a.json", "b.json"}, &out, &errw); code != 2 {
		t.Fatalf("-cpus exit = %d, want 2", code)
	}
}
