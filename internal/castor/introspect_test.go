package castor

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// spanLog is a SpanSink that keeps every finished span's identity, so
// tests can check parentage and round tags without an exporter.
type spanLog struct {
	mu    sync.Mutex
	spans []loggedSpan
}

type loggedSpan struct {
	ID, ParentID, Round uint64
	Name                string
	Worker              int
}

func (l *spanLog) SpanStart(*obs.Span) {}

func (l *spanLog) SpanEnd(s *obs.Span, _ time.Duration) {
	l.mu.Lock()
	l.spans = append(l.spans, loggedSpan{ID: s.ID, ParentID: s.ParentID, Round: s.Round, Name: s.Name, Worker: s.Worker})
	l.mu.Unlock()
}

func (l *spanLog) records() []loggedSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]loggedSpan(nil), l.spans...)
}

// checkChain fails unless the live span stack is one parent chain,
// innermost first: each span's parent is the next span, the outermost is
// a root.
func checkChain(t *testing.T, spans []obs.LiveSpan) {
	t.Helper()
	for i, s := range spans {
		want := uint64(0)
		if i+1 < len(spans) {
			want = spans[i+1].ID
		}
		if s.Parent != want {
			t.Fatalf("active spans are not one parent chain: %+v", spans)
		}
	}
}

// TestLiveSpansAndFlightDumpDuringLearn reads the live span stack and
// dumps the flight recorder while a Castor Learn call runs, exercising
// both under concurrency (meaningful under -race), then checks the run's
// report.
func TestLiveSpansAndFlightDumpDuringLearn(t *testing.T) {
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(2048, nil)
	run := obs.NewRun(fr, reg)

	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.Obs = run

	done := make(chan error, 1)
	go func() {
		_, err := New().Learn(prob, params)
		done <- err
	}()

	// Poll until the run finishes; every live stack must form one parent
	// chain and every dump line must be JSON.
	polls := 0
	for learning := true; learning; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			learning = false
		default:
			checkChain(t, run.LiveSpans())
			// Dump the flight recorder while spans are still being recorded
			// into it — the seqlock ring must stay consistent (and clean
			// under -race).
			var dump bytes.Buffer
			if err := fr.WriteJSONL(&dump); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimSpace(dump.String()), "\n") {
				if !json.Valid([]byte(line)) {
					t.Fatalf("mid-run flight dump line is not JSON: %q", line)
				}
			}
			polls++
		}
	}
	if polls == 0 {
		t.Log("run finished before any poll; span checks below still apply")
	}

	// After the run: no span may remain open, and some must have run.
	if open := run.LiveSpans(); len(open) != 0 {
		t.Errorf("spans still open after Learn: %+v", open)
	}
	rep := reg.Snapshot()
	if rep.Spans["learn"].Calls != 1 {
		t.Errorf("learn span calls = %d, want 1 (spans: %v)", rep.Spans["learn"].Calls, rep.Spans)
	}
	for _, name := range []string{"coverage_tests", "bottom_clauses", "tuples_scanned"} {
		if rep.Counters[name] == 0 {
			t.Errorf("counter %s is zero after a full Castor run", name)
		}
	}
}

// TestConcurrentLearnsDoNotCrossContaminate runs two Learn calls with two
// distinct *obs.Run/registry/span-log stacks concurrently in one process
// — each with its own flight recorder and stall watchdog running — and
// reads their live span stacks, registries and flight recorders while
// they race (meaningful under -race): each stack must only ever see its
// own run's spans and counters, and the learned definitions must match a
// sequential baseline.
func TestConcurrentLearnsDoNotCrossContaminate(t *testing.T) {
	type stack struct {
		run  *obs.Run
		reg  *obs.Registry
		log  *spanLog
		ring *obs.FlightRecorder
	}
	mk := func() *stack {
		log := &spanLog{}
		reg := obs.NewRegistry()
		ring := obs.NewFlightRecorder(1024, nil)
		run := obs.NewRun(obs.MultiSpanSink(log, ring), reg)
		return &stack{run: run, reg: reg, log: log, ring: ring}
	}
	a, b := mk(), mk()

	learn := func(s *stack, worldSize int) (string, error) {
		w := testfix.NewWorld(worldSize)
		prob := w.ProblemOriginal()
		params := ilp.Defaults()
		params.Obs = s.run
		// A tight stall interval so the watchdog goroutine actively ticks
		// (and may trip) during the learn; trips must not perturb learning.
		wd := obs.StartWatchdog(params.Obs, 25*time.Millisecond, nil)
		defer wd.Stop()
		def, err := New().Learn(prob, params)
		if err != nil {
			return "", err
		}
		return def.String(), nil
	}

	// Sequential baselines first, on fresh stacks.
	base8, err := learn(mk(), 8)
	if err != nil {
		t.Fatal(err)
	}
	base6, err := learn(mk(), 6)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		def string
		err error
	}
	da := make(chan result, 1)
	db := make(chan result, 1)
	go func() { d, err := learn(a, 8); da <- result{d, err} }()
	go func() { d, err := learn(b, 6); db <- result{d, err} }()

	// Read both stacks while the runs race.
	poll := func(s *stack) {
		checkChain(t, s.run.LiveSpans())
		s.reg.Snapshot()
		if err := s.ring.WriteJSONL(io.Discard); err != nil {
			t.Error(err)
		}
	}
	var ra, rb *result
	for ra == nil || rb == nil {
		select {
		case r := <-da:
			ra = &r
		case r := <-db:
			rb = &r
		default:
			poll(a)
			poll(b)
		}
	}
	if ra.err != nil || rb.err != nil {
		t.Fatal(ra.err, rb.err)
	}
	if ra.def != base8 {
		t.Errorf("concurrent run A learned a different definition:\nbase: %s\ngot:  %s", base8, ra.def)
	}
	if rb.def != base6 {
		t.Errorf("concurrent run B learned a different definition:\nbase: %s\ngot:  %s", base6, rb.def)
	}

	for name, s := range map[string]*stack{"A": a, "B": b} {
		// Each run's span stack unwinds within its own run — a span ended
		// on the wrong run would leave the other's stack open.
		if open := s.run.LiveSpans(); len(open) != 0 {
			t.Errorf("run %s: spans still open: %+v", name, open)
		}
		// Exactly one learn span each: the other run's spans never leaked in.
		if calls := s.reg.Snapshot().Spans["learn"].Calls; calls != 1 {
			t.Errorf("run %s: %d learn spans in its registry, want exactly 1", name, calls)
		}
	}

	// Span logs must be disjoint: process-unique span and round IDs mean
	// no ID appears in both logs, every span's parent resolves within its
	// own log, and each log holds exactly one learn root.
	recsA, recsB := a.log.records(), b.log.records()
	idsA := map[uint64]bool{}
	roundsA := map[uint64]bool{}
	for _, r := range recsA {
		idsA[r.ID] = true
		if r.Round != 0 {
			roundsA[r.Round] = true
		}
	}
	for _, r := range recsB {
		if idsA[r.ID] {
			t.Errorf("span ID %d appears in both runs' logs", r.ID)
		}
		if r.Round != 0 && roundsA[r.Round] {
			t.Errorf("round ID %d appears in both runs' logs", r.Round)
		}
	}
	for name, recs := range map[string][]loggedSpan{"A": recsA, "B": recsB} {
		ids := map[uint64]bool{}
		for _, r := range recs {
			ids[r.ID] = true
		}
		var learnRoots int
		for _, r := range recs {
			switch {
			case r.ParentID == 0 && r.Name == "learn":
				learnRoots++
			case r.ParentID == 0:
				t.Errorf("run %s: span %d (%s) is a root but not learn", name, r.ID, r.Name)
			case !ids[r.ParentID]:
				t.Errorf("run %s: span %d (%s) has parent %d outside its own log",
					name, r.ID, r.Name, r.ParentID)
			}
		}
		if learnRoots != 1 {
			t.Errorf("run %s: %d learn roots, want exactly 1", name, learnRoots)
		}
	}
}
