package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// learnWithProvenance drives the full CLI on UW-CSE with -provenance and
// returns the artifact path and the run's stdout.
func learnWithProvenance(t *testing.T, extra func(*options)) (string, string) {
	t.Helper()
	dir := t.TempDir()
	o := options{
		dataset: "uwcse", learner: "castor", coverage: "auto",
		sample: 4, beam: 2, clauseLength: 10, par: 2, seed: 1,
		provFile: filepath.Join(dir, "prov.jsonl"),
	}
	if extra != nil {
		extra(&o)
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	return o.provFile, out.String()
}

// definitionOf extracts the learned-definition block from run output.
func definitionOf(t *testing.T, out string) string {
	t.Helper()
	_, rest, ok := strings.Cut(out, "learned definition")
	if !ok {
		t.Fatalf("run output has no definition:\n%s", out)
	}
	lines := strings.SplitN(rest, "\n", 2)[1]
	def, _, _ := strings.Cut(lines, "\ntraining-set quality")
	return strings.TrimSpace(def)
}

// TestProvenanceFlagDoesNotChangeDefinition is the CLI-level regression
// guarantee: the same run with and without -provenance learns the
// byte-identical definition, and the artifact it writes parses.
func TestProvenanceFlagDoesNotChangeDefinition(t *testing.T) {
	var without bytes.Buffer
	o := options{
		dataset: "uwcse", learner: "castor", coverage: "auto",
		sample: 4, beam: 2, clauseLength: 10, par: 2, seed: 1,
	}
	if err := run(o, &without); err != nil {
		t.Fatal(err)
	}
	provPath, withOut := learnWithProvenance(t, nil)

	defOff := definitionOf(t, without.String())
	defOn := definitionOf(t, withOut)
	if defOff != defOn {
		t.Errorf("-provenance changed the learned definition:\noff: %s\non:  %s", defOff, defOn)
	}

	g, err := loadProvenance(provPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.nodes) == 0 || len(g.selects) == 0 || g.summary == nil {
		t.Fatalf("artifact incomplete: %d nodes, %d selects, summary=%v",
			len(g.nodes), len(g.selects), g.summary)
	}
	if g.meta["dataset"] != "UW-CSE" || g.meta["learner"] != "Castor" {
		t.Errorf("meta record wrong: %v", g.meta)
	}

	// Every selected clause has a complete lineage ending at a seed bottom
	// clause.
	for _, s := range g.selects {
		if s.Node == 0 {
			t.Errorf("select %q resolves to no node", s.Clause)
			continue
		}
		path := g.lineage(s.Node)
		if len(path) == 0 || path[0].Step != "seed_bottom" {
			t.Errorf("select %q: lineage does not reach a seed bottom clause (%d steps)", s.Clause, len(path))
		}
	}
}

// TestExplainSubcommand drives all three explain modes against a real
// artifact.
func TestExplainSubcommand(t *testing.T) {
	provPath, runOut := learnWithProvenance(t, nil)
	def := definitionOf(t, runOut)
	firstClause := strings.SplitN(def, "\n", 2)[0]

	// Lineage mode (default): every learned clause appears with a lineage.
	var out bytes.Buffer
	if err := runExplain([]string{"-provenance", provPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "clause: "+firstClause) {
		t.Errorf("lineage output missing learned clause %q:\n%s", firstClause, out.String())
	}
	if !strings.Contains(out.String(), "seed_bottom") {
		t.Errorf("lineage output has no seed_bottom step:\n%s", out.String())
	}

	// -clause filters to one clause; an unknown clause is an error.
	out.Reset()
	if err := runExplain([]string{"-provenance", provPath, "-clause", firstClause}, &out); err != nil {
		t.Fatal(err)
	}
	if err := runExplain([]string{"-provenance", provPath, "-clause", "noSuchPredicate(X)"}, &out); err == nil {
		t.Error("unknown -clause did not error")
	}

	// -inds prints firing totals for the UW-CSE INDs.
	out.Reset()
	if err := runExplain([]string{"-provenance", provPath, "-inds"}, &out); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`\d+\s+\w+\[\w+\] = \w+\[\w+\]`).MatchString(out.String()) {
		t.Errorf("-inds output has no firing rows:\n%s", out.String())
	}

	// -example resolves a covered positive to its witness clause and
	// substitution, replaying the dataset named in the meta record.
	out.Reset()
	if err := runExplain([]string{"-provenance", provPath, "-example", "advisedBy(stud10,prof9)"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "is COVERED") ||
		!strings.Contains(out.String(), "witness clause:") ||
		!strings.Contains(out.String(), "->") {
		t.Errorf("-example output missing witness:\n%s", out.String())
	}

	// A non-covered example is explained, not an error.
	out.Reset()
	if err := runExplain([]string{"-provenance", provPath, "-example", "advisedBy(stud0,prof0)"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NOT covered") {
		t.Errorf("-example output missing NOT covered verdict:\n%s", out.String())
	}

	// Usage errors.
	if err := runExplain([]string{}, &out); err == nil {
		t.Error("missing -provenance did not error")
	}
	if err := runExplain([]string{"-provenance", provPath, "-example", "notGround(X)"}, &out); err == nil {
		t.Error("non-ground -example did not error")
	}
}

// TestProvenanceSamplingFlagsStillCompleteLineage: a tiny node cap drops
// pruned candidates but never breaks the lineage of selected clauses.
func TestProvenanceSamplingFlagsStillCompleteLineage(t *testing.T) {
	provPath, _ := learnWithProvenance(t, func(o *options) {
		o.provMaxNodes = 50
	})
	g, err := loadProvenance(provPath)
	if err != nil {
		t.Fatal(err)
	}
	if g.summary == nil {
		t.Fatal("no summary record")
	}
	for _, s := range g.selects {
		path := g.lineage(s.Node)
		if len(path) == 0 || path[0].Step != "seed_bottom" {
			t.Errorf("capped artifact: select %q lost its lineage", s.Clause)
		}
	}
}
