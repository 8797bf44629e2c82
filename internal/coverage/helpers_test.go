package coverage

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/obs"
)

// within fails the test when body does not return in time: a round that
// waited for a helper that never took a shard would hang instead.
func within(t *testing.T, d time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("rounds did not complete within %v", d)
	}
}

// TestNestedRoundsComplete: every job of a fan-out submits rounds of its
// own (a coverage scan and another fan-out), at two and four workers for
// eight jobs, so nested rounds are posted while helpers are busy; each
// completes with the answers a one-worker engine gives.
func TestNestedRoundsComplete(t *testing.T) {
	exs := exampleAtoms(64)
	clauses := []*logic.Clause{
		logic.MustParseClause("h(X) :- p(X)."),
		logic.MustParseClause("h(X) :- p(X), q(X)."),
	}
	var f fakeCover
	want := NewEngine(perPair(f.fn), newNop, 1, nil, nil).CoveredSet(clauses[1], exs, nil)
	for _, workers := range []int{2, 4} {
		en := NewEngine(perPair(f.fn), newNop, workers, nil, nil)
		const jobs = 8
		sets := make([]*Bitset, jobs)
		var inner atomic.Int64
		within(t, 20*time.Second, func() {
			en.Fan("test_outer", jobs, func(i int) {
				sets[i] = en.CoveredSet(clauses[i%2], exs, nil)
				en.Fan("test_inner", 3, func(int) { inner.Add(1) })
			})
		})
		for i, set := range sets {
			if i%2 == 1 && !set.Equal(want) {
				t.Errorf("workers=%d: job %d's nested scan disagrees with the serial one", workers, i)
			}
			if set.Len() != len(exs) {
				t.Errorf("workers=%d: job %d's set has %d bits", workers, i, set.Len())
			}
		}
		if got := inner.Load(); got != 3*jobs {
			t.Errorf("workers=%d: nested fan-outs ran %d jobs, want %d", workers, got, 3*jobs)
		}
	}
}

// TestFanRunsEveryJobOnBoundedWorkers: Fan runs each job exactly once,
// on the calling goroutine alone with one worker, and never on more
// goroutines at once than the engine's worker count.
func TestFanRunsEveryJobOnBoundedWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		en := NewEngine(perPair(func(*logic.Clause, logic.Atom) bool { return false }), newNop, workers, nil, nil)
		const n = 40
		runs := make([]atomic.Int32, n)
		var inFlight, peak atomic.Int32
		en.Fan("test_fan", n, func(i int) {
			cur := inFlight.Add(1)
			for old := peak.Load(); cur > old && !peak.CompareAndSwap(old, cur); old = peak.Load() {
			}
			time.Sleep(50 * time.Microsecond)
			inFlight.Add(-1)
			runs[i].Add(1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
		if p := peak.Load(); p > int32(workers) {
			t.Errorf("workers=%d: %d jobs ran at once", workers, p)
		}
	}
}

// finalized reports whether the object whose finalizer closes done is
// collected within twenty collections. (A finalizer stands in for a
// weak pointer, which needs Go 1.24; go.mod says 1.22.)
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

// TestFinishedEngineIsCollectable: once its rounds are done, nothing the
// helpers hold keeps an engine alive — not the last round a helper
// joined, not the open-round list — and the helpers themselves stay. The
// last fan-out's jobs wait until every seat is taken, so helpers have
// run jobs that reach the engine.
func TestFinishedEngineIsCollectable(t *testing.T) {
	const workers = 3
	exs := exampleAtoms(100)
	c := logic.MustParseClause("h(X) :- p(X).")
	cands := []Candidate{{Clause: c}, {Clause: logic.MustParseClause("h(X) :- q(X).")}}
	done := make(chan struct{})
	func() {
		var f fakeCover
		en := NewEngine(perPair(f.fn), newNop, workers, NewCache(0), obs.NewRun(nil, obs.NewRegistry()))
		runtime.SetFinalizer(en, func(*Engine[nopProbe]) { close(done) })
		en.CoveredSet(c, exs, nil)
		en.ScoreBatch(cands, exs, exs, NoBound, 1)
		var inFlight atomic.Int32
		full := make(chan struct{})
		en.Fan("test_fan", workers, func(int) {
			if inFlight.Add(1) == workers {
				close(full)
			}
			select {
			case <-full:
			case <-time.After(20 * time.Second):
				t.Error("the fan-out's seats were never all taken")
			}
			en.CoversAtMost(c, exs, nil, 10)
		})
	}()
	if !finalized(done) {
		t.Error("a finished engine is still reachable after GC")
	}
	if n := helpers.started.Load(); n < workers-1 {
		t.Errorf("%d helpers started, want at least %d for a %d-worker engine", n, workers-1, workers)
	}
	if g := runtime.NumGoroutine(); g < int(helpers.started.Load()) {
		t.Errorf("%d goroutines, fewer than the %d helpers started", g, helpers.started.Load())
	}
}
