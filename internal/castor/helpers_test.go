package castor

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
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
			params.Obs = obs.NewRun(sink, nil) // no registry: its store source would hold the instance
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

// TestARMGFanOutMatchesSerial: a beam round's ARMGs generated on the
// tester's rounds at Parallelism 2 and 4 are the serial ones, entry by
// entry, in both coverage modes, for a beam of the bottom clause and for
// a beam of its generalizations.
func TestARMGFanOutMatchesSerial(t *testing.T) {
	for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
		var serial [][]string
		for _, par := range []int{1, 2, 4} {
			prob := uwcseProblems(t, "Original")[0]
			params := ilp.Defaults()
			params.Parallelism = par
			params.CoverageMode = mode
			tester, bld := coverageTester(prob, params)
			sample := prob.Pos[1:9]
			beam := []*scored{{clause: BottomClause(prob, bld.Plan(), prob.Pos[0], params)}}
			var rounds [][]string
			for round := 0; round < 2; round++ {
				gens := armgs(tester, bld.Plan(), beam, sample, params)
				if len(gens) != len(beam)*len(sample) {
					t.Fatalf("%d ARMGs of %d entries toward %d examples", len(gens), len(beam), len(sample))
				}
				rounds = append(rounds, clauseStrings(gens))
				beam = beam[:0]
				for _, g := range gens {
					if g != nil && len(beam) < 3 {
						beam = append(beam, &scored{clause: g})
					}
				}
			}
			if par == 1 {
				serial = rounds
				continue
			}
			for r := range rounds {
				for i := range rounds[r] {
					if rounds[r][i] != serial[r][i] {
						t.Errorf("mode %v Parallelism %d round %d: ARMG %d is\n%s\nserially\n%s",
							mode, par, r, i, rounds[r][i], serial[r][i])
					}
				}
			}
		}
	}
}

// clauseStrings renders clauses, "<nil>" for a nil one.
func clauseStrings(cs []*logic.Clause) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = "<nil>"
		if c != nil {
			out[i] = c.String()
		}
	}
	return out
}
