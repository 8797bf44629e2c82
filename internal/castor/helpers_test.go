package castor

import (
	"bufio"
	"bytes"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// helperShards is a span sink that notes whether a shard ran on a helper
// (a worker index above 0) and keeps nothing else.
type helperShards struct{ helped atomic.Bool }

func (h *helperShards) SpanStart(*obs.Span) {}

func (h *helperShards) SpanEnd(s *obs.Span, _ time.Duration) {
	if s.Worker > 0 {
		h.helped.Store(true)
	}
}

// TestFinishedLearnIsCollectable: after a Castor learn at Parallelism 2,
// whose coverage and ARMG rounds ran on the process's persistent helpers,
// nothing keeps the learn's problem — or the tester and engine that
// reach it, with their compiled saturations — alive, in either coverage
// mode. A finalizer on the problem stands in for a weak pointer, which
// needs Go 1.24; go.mod says 1.22. Each mode learns until a helper has
// run one of the learn's shards, up to ten times: with one processor a
// helper may never get to.
func TestFinishedLearnIsCollectable(t *testing.T) {
	for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
		learn := func(done chan struct{}) bool {
			prob := testfix.NewWorld(8).ProblemOriginal()
			runtime.SetFinalizer(prob, func(*ilp.Problem) { close(done) })
			params := ilp.Defaults()
			params.Parallelism = 2
			params.CoverageMode = mode
			sink := &helperShards{}
			params.Obs = obs.NewRun(sink, nil)
			if _, err := New().Learn(prob, params); err != nil {
				t.Fatal(err)
			}
			return sink.helped.Load()
		}
		for try := 0; try < 10; try++ {
			done := make(chan struct{})
			helped := learn(done)
			if !finalized(done) {
				t.Fatalf("mode %v: a finished learn's problem is still reachable after GC", mode)
			}
			if helped {
				break
			}
			t.Logf("mode %v: no helper ran a shard of learn %d", mode, try)
		}
	}
}

// finalized reports whether the object whose finalizer closes done is
// collected within twenty collections.
func finalized(done <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

// TestLearnsStartNoGoroutines: learning again and again at Parallelism 2
// adds at most the one helper the first learn may start.
func TestLearnsStartNoGoroutines(t *testing.T) {
	const learns, par = 50, 2
	base := runtime.NumGoroutine()
	for i := 0; i < learns; i++ {
		prob := testfix.NewWorld(6).ProblemOriginal()
		params := ilp.Defaults()
		params.Parallelism = par
		params.Seed = int64(i + 1)
		if _, err := New().Learn(prob, params); err != nil {
			t.Fatal(err)
		}
	}
	if g := runtime.NumGoroutine(); g > base+par-1 {
		t.Errorf("%d goroutines after %d learns, want at most %d (%d before, plus Parallelism-1 helpers)",
			g, learns, base+par-1, base)
	}
}

// uwcseProblems returns the UW-CSE problems of the named schemas,
// generated afresh, so learns share no instance.
func uwcseProblems(t *testing.T, variants ...string) []*ilp.Problem {
	t.Helper()
	ds, err := datasets.GenerateUWCSE(datasets.DefaultUWCSE())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*ilp.Problem, len(variants))
	for i, v := range variants {
		if out[i], err = ds.Problem(v); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestConcurrentLearnsShareHelpers: two Castor learns at Parallelism 2
// running at once post their rounds to the same helpers, and each learns
// the definition it learns alone.
func TestConcurrentLearnsShareHelpers(t *testing.T) {
	variants := []string{"Original", "4NF"}
	params := ilp.Defaults()
	params.Parallelism = 2
	alone := make([]string, len(variants))
	for i, prob := range uwcseProblems(t, variants...) {
		def, err := New().Learn(prob, params)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = def.String()
	}
	probs := uwcseProblems(t, variants...)
	got := make([]string, len(variants))
	errs := make(chan error, len(variants))
	for i, prob := range probs {
		go func() {
			def, err := New().Learn(prob, params)
			if err == nil {
				got[i] = def.String()
			}
			errs <- err
		}()
	}
	for range variants {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range variants {
		if got[i] != alone[i] {
			t.Errorf("%s: learned at the same time as another learn:\n%s\nalone:\n%s", v, got[i], alone[i])
		}
	}
}

// TestARMGFanOutMatchesSerial: Castor's learns at Parallelism 2 and 4,
// whose beam rounds fan their ARMGs out over the tester's rounds, record
// the ARMGs of the serial learn: in both coverage modes the ARMG nodes of
// the provenance stream (parents, seed, clause, counts and disposition,
// in order) are those at Parallelism 1. Sample 4/BeamWidth 2 and Sample
// 8/BeamWidth 3 give a round up to 24 ARMG jobs, and on the testfix
// worlds the search runs past its first round. internal/ilp checks the
// fan-out itself round by round under both policies.
func TestARMGFanOutMatchesSerial(t *testing.T) {
	problems := []struct {
		name string
		prob func() *ilp.Problem
	}{
		{"uwcse/Original", func() *ilp.Problem { return uwcseProblems(t, "Original")[0] }},
		{"uwcse/4NF", func() *ilp.Problem { return uwcseProblems(t, "4NF")[0] }},
		{"world8", func() *ilp.Problem { return testfix.NewWorld(8).ProblemOriginal() }},
		{"world12", func() *ilp.Problem { return testfix.NewWorld(12).ProblemOriginal() }},
	}
	for _, p := range problems {
		for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
			for _, sb := range [][2]int{{4, 2}, {8, 3}} {
				var serial []string
				for _, par := range []int{1, 2, 4} {
					params := ilp.Defaults()
					params.Parallelism = par
					params.CoverageMode = mode
					params.Sample, params.BeamWidth = sb[0], sb[1]
					nodes := armgNodes(t, p.prob(), params)
					if par == 1 {
						if len(nodes) == 0 {
							t.Fatalf("%s mode %v sample/beam %v: the serial learn recorded no ARMG", p.name, mode, sb)
						}
						serial = nodes
						continue
					}
					if len(nodes) != len(serial) {
						t.Errorf("%s mode %v sample/beam %v Parallelism %d: %d ARMG nodes, serially %d",
							p.name, mode, sb, par, len(nodes), len(serial))
					}
					for i := range min(len(nodes), len(serial)) {
						if nodes[i] != serial[i] {
							t.Errorf("%s mode %v sample/beam %v Parallelism %d: ARMG node %d is\n%s\nserially\n%s",
								p.name, mode, sb, par, i, nodes[i], serial[i])
							break
						}
					}
				}
			}
		}
	}
}

// armgNodes learns prob with Castor under params, recording unbounded
// provenance, and returns the stream's ARMG node lines in order.
func armgNodes(t *testing.T, prob *ilp.Problem, params ilp.Params) []string {
	t.Helper()
	var buf bytes.Buffer
	prov := obs.NewProvenance(&buf, obs.ProvOptions{MaxNodes: -1})
	params.Obs = obs.NewRun(nil, obs.NewRegistry()).WithProvenance(prov)
	if _, err := New().Learn(prob, params); err != nil {
		t.Fatal(err)
	}
	if err := prov.Close(); err != nil {
		t.Fatal(err)
	}
	var nodes []string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct{ Kind, Step string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("provenance line %q does not parse: %v", sc.Text(), err)
		}
		if rec.Kind == "node" && rec.Step == obs.StepARMG {
			nodes = append(nodes, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return nodes
}
