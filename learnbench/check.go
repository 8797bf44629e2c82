package main

import (
	"embed"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/eval"
	"repro/internal/ilp"
	"repro/internal/logic"
)

// expectedDefs holds the definitions the current code learns on the first
// datasets of the default and the hold-out seed of every workload.
// Regenerate them with -write-expected only when a change is meant to
// alter what is learned.
//
//go:embed expected
var expectedDefs embed.FS

// The stored seeds: the default one and one never used while the
// benchmark was tuned.
const (
	defaultSeed = 1
	holdoutSeed = 20261017
)

// expectedPath names the file storing a workload's definitions for a seed.
func expectedPath(workload string, seed int64) string {
	return fmt.Sprintf("expected/%s-seed%d.txt", workload, seed)
}

// The file holds one block per learned definition: a header line
// "# dataset <j> schema <name>", then the definition, then a newline.
// Clause lines never start with '#'.
const headerPrefix = "# dataset "

// sampleSchema names, in headers and failures, the traced run's
// Aleph-Progol learn on a sample of dataset 0's first schema.
const sampleSchema = "progol-sample"

func header(j int, schema string) string {
	return fmt.Sprintf("%s%d schema %s", headerPrefix, j, schema)
}

// parseExpected maps each header of a stored file to its definition.
func parseExpected(b []byte) (map[string]string, error) {
	out := map[string]string{}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	key := ""
	var block []string
	flush := func() {
		if key != "" {
			out[key] = strings.Join(block, "\n")
		}
	}
	for _, l := range lines {
		if strings.HasPrefix(l, headerPrefix) {
			flush()
			if _, dup := out[l]; dup {
				return nil, fmt.Errorf("duplicate block %q", l)
			}
			key, block = l, nil
			continue
		}
		if key == "" {
			return nil, fmt.Errorf("definition line before the first header: %q", l)
		}
		block = append(block, l)
	}
	flush()
	return out, nil
}

// writeExpected stores the definitions learned on datasets 0..len(defs)-1,
// skipping nil entries, and the progol sample's unless it is nil, under
// dir, the directory that holds the expected/ tree.
func writeExpected(dir string, w workload, seed int64, defs [][]*logic.Definition, sample *logic.Definition) error {
	var b strings.Builder
	for j, ds := range defs {
		for i, d := range ds {
			fmt.Fprintf(&b, "%s\n%s\n", header(j, w.schemas[i]), d.String())
		}
	}
	if sample != nil {
		fmt.Fprintf(&b, "%s\n%s\n", header(0, sampleSchema), sample.String())
	}
	path := filepath.Join(dir, filepath.FromSlash(expectedPath(w.name, seed)))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// checker applies the correctness checks to every learn of a run and
// counts attempted and failed learns. A learn fails when it errors,
// panics or overruns, when its definition differs from the stored one,
// when it differs from an earlier definition learned on the same dataset
// and schema, or — on Castor workloads — when the definitions of the
// dataset's schemas cover different training examples.
type checker struct {
	w        workload
	seed     int64
	expected map[string]string // by header; empty when none is stored

	// The dataset being learned, set by dataset.
	j     int
	first []*string // per schema: the first definition learned
	// dependent marks schemas whose first definition covers other
	// training examples than the first schema's.
	dependent []bool

	attempted, failed int
	failures          []string
}

// newChecker loads the stored definitions for the seed from defs.
func newChecker(w workload, seed int64, defs fs.FS) (*checker, error) {
	c := &checker{w: w, seed: seed, expected: map[string]string{}}
	b, err := fs.ReadFile(defs, expectedPath(w.name, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	if c.expected, err = parseExpected(b); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(w.name, seed), err)
	}
	return c, nil
}

// dataset starts checking the learns on dataset j.
func (c *checker) dataset(j int) {
	c.j = j
	c.first = make([]*string, len(c.w.schemas))
	c.dependent = make([]bool, len(c.w.schemas))
}

// pass checks the learns of one pass over the dataset's problems, one
// result per schema, and reports whether all passed. The dataset's first
// complete pass runs the schema-independence check.
func (c *checker) pass(label string, probs []*ilp.Problem, rs []learnResult) bool {
	ok := true
	firstPass := c.first[0] == nil
	for i, r := range rs {
		ok = c.learn(label, i, r) && ok
	}
	if firstPass && ok && len(rs) == len(probs) && c.w.schemaIndependent() {
		c.checkIndependence(label, probs, rs)
	}
	return ok
}

// learn checks one learn on schema i and reports whether it passed.
func (c *checker) learn(label string, i int, r learnResult) bool {
	c.attempted++
	msg := c.learnFailure(i, r)
	if msg == "" {
		return true
	}
	c.fail(label, i, msg)
	return false
}

// sample checks the traced run's Aleph-Progol learn on a sample of the
// dataset's first schema (learnProgolSample) and reports whether it
// passed: it fails when it errors, panics or overruns, or when its
// definition differs from the stored one.
func (c *checker) sample(r learnResult) bool {
	c.attempted++
	msg := errFailure(r.err)
	if msg == "" {
		if e, ok := c.expected[header(c.j, sampleSchema)]; ok && r.def.String() != e {
			msg = fmt.Sprintf("expected: learned %q, stored %q", r.def.String(), e)
		}
	}
	if msg == "" {
		return true
	}
	c.failSchema("traced", sampleSchema, msg)
	return false
}

func (c *checker) fail(label string, i int, msg string) { c.failSchema(label, c.w.schemas[i], msg) }

func (c *checker) failSchema(label, schema, msg string) {
	c.failed++
	c.failures = append(c.failures, fmt.Sprintf("dataset=%d %s schema=%s check=%s", c.j, label, schema, msg))
}

// errFailure names the failed check of a learn that returned err, "" for
// none.
func errFailure(err error) string {
	if err == nil {
		return ""
	}
	kind := "error"
	switch {
	case errors.Is(err, errOverrun):
		kind = "overrun"
	case strings.HasPrefix(err.Error(), "panic:"):
		kind = "panic"
	}
	return fmt.Sprintf("%s: %s", kind, firstLine(err.Error()))
}

func (c *checker) learnFailure(i int, r learnResult) string {
	if r.err != nil {
		return errFailure(r.err)
	}
	got := r.def.String()
	if c.first[i] == nil {
		c.first[i] = &got
	}
	if e, ok := c.expected[header(c.j, c.w.schemas[i])]; ok && got != e {
		return fmt.Sprintf("expected: learned %q, stored %q", got, e)
	}
	if got != *c.first[i] {
		return fmt.Sprintf("repeat: learned %q, first learned %q", got, *c.first[i])
	}
	if c.dependent[i] {
		return "independence: covers other training examples than schema " + c.w.schemas[0]
	}
	return ""
}

// checkIndependence compares the training examples each schema's
// definition covers with those the first schema's covers — the paper's
// schema-independence claim — and fails the learns that differ.
func (c *checker) checkIndependence(label string, probs []*ilp.Problem, rs []learnResult) {
	ref := coveredExamples(probs[0], rs[0].def)
	for i := 1; i < len(rs); i++ {
		if coveredExamples(probs[i], rs[i].def) != ref {
			c.dependent[i] = true
			c.fail(label, i, "independence: covers other training examples than schema "+c.w.schemas[0])
		}
	}
}

// coveredExamples renders which training examples def covers on the
// problem's instance as a string of '+' (covered) and '.' marks, positives
// first.
func coveredExamples(p *ilp.Problem, def *logic.Definition) string {
	var b strings.Builder
	for _, set := range [][]logic.Atom{p.Pos, p.Neg} {
		for _, e := range set {
			if p.Instance.DefinitionCovers(def, e) {
				b.WriteByte('+')
			} else {
				b.WriteByte('.')
			}
		}
	}
	return b.String()
}

// meanF1 is the mean training-set F1 over the problems of the definitions
// learned on them (a missing one counts as 0), computed by eval.Evaluate on
// the full example set.
func meanF1(probs []*ilp.Problem, rs []learnResult) float64 {
	sum := 0.0
	for i, r := range rs {
		p := probs[i]
		sum += eval.Evaluate(p.Instance, r.def, p.Pos, p.Neg).F1
	}
	return sum / float64(len(probs))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
