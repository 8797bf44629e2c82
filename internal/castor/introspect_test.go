package castor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// checkChain fails unless the /progress stack is one parent chain,
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

// TestIntrospectionServerDuringLearn polls /progress while a Castor Learn
// call runs, exercising the live span stack and counter deltas under
// concurrency (meaningful under -race), then checks the post-run /metrics
// exposition carries every counter.
func TestIntrospectionServerDuringLearn(t *testing.T) {
	reg := obs.NewRegistry()
	run := obs.NewRun(nil, reg).WithFlightRecorder(obs.NewFlightRecorder(2048))
	srv := httptest.NewServer(obs.NewHandler(run, nil, nil))
	defer srv.Close()

	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	params := ilp.Defaults()
	params.Obs = run

	done := make(chan error, 1)
	go func() {
		_, err := New().Learn(prob, params)
		done <- err
	}()

	// Poll /progress until the run finishes; every response must be valid
	// JSON whose active spans form one parent chain.
	polls := 0
	for learning := true; learning; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			learning = false
		default:
			resp, err := http.Get(srv.URL + "/progress")
			if err != nil {
				t.Fatal(err)
			}
			var snap obs.Snapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Fatalf("mid-run /progress is not valid JSON: %v", err)
			}
			resp.Body.Close()
			// Dump the flight recorder while spans are still being recorded
			// into it — the seqlock ring must stay consistent (and clean
			// under -race).
			fresp, err := http.Get(srv.URL + "/debug/flightrecorder")
			if err != nil {
				t.Fatal(err)
			}
			fbody, _ := io.ReadAll(fresp.Body)
			fresp.Body.Close()
			for _, line := range strings.Split(strings.TrimSpace(string(fbody)), "\n") {
				if !json.Valid([]byte(line)) {
					t.Fatalf("mid-run flight dump line is not JSON: %q", line)
				}
			}
			checkChain(t, snap.ActiveSpans)
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
	if len(reg.Snapshot().Spans) == 0 {
		t.Error("no spans completed over a full Castor run")
	}

	// /metrics renders every counter of the registry in exposition format.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"coverage_tests", "bottom_clauses", "tuples_scanned"} {
		if !strings.Contains(string(body), fmt.Sprintf("sirl_%s ", name)) {
			t.Errorf("/metrics missing sirl_%s", name)
		}
	}
	if !strings.Contains(string(body), `sirl_span_calls{span="learn"} 1`) {
		t.Errorf("/metrics missing the learn span aggregate:\n%s", body)
	}
}

// TestConcurrentLearnsDoNotCrossContaminate runs two Learn calls with two
// distinct *obs.Run/registry/server stacks concurrently in one process —
// each with its own flight recorder, stall watchdog and resource sampler
// running — and polls /progress, /metrics and /debug/flightrecorder while
// they race (meaningful under -race): each server must only ever see its
// own run's spans and counters, and the learned definitions must match a
// sequential baseline.
func TestConcurrentLearnsDoNotCrossContaminate(t *testing.T) {
	type stack struct {
		run   *obs.Run
		graph *obs.GraphSink
		srv   *httptest.Server
	}
	mk := func() *stack {
		graph := obs.NewGraphSink(0)
		run := obs.NewRun(graph, obs.NewRegistry()).WithFlightRecorder(obs.NewFlightRecorder(1024))
		return &stack{run: run, graph: graph, srv: httptest.NewServer(obs.NewHandler(run, nil, graph))}
	}
	a, b := mk(), mk()
	defer a.srv.Close()
	defer b.srv.Close()

	learn := func(s *stack, worldSize int) (string, error) {
		w := testfix.NewWorld(worldSize)
		prob := w.ProblemOriginal()
		params := ilp.Defaults()
		params.Obs = s.run
		// A tight stall interval so the watchdog goroutine actively ticks
		// (and may trip) during the learn; trips must not perturb learning.
		wd := obs.StartWatchdog(params.Obs, 25*time.Millisecond, nil)
		defer wd.Stop()
		smp := obs.StartSampler(params.Obs, 5*time.Millisecond)
		defer smp.Stop()
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

	// Poll both servers while the runs race.
	poll := func(s *stack) {
		resp, err := http.Get(s.srv.URL + "/progress")
		if err != nil {
			t.Error(err)
			return
		}
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Errorf("mid-run /progress is not valid JSON: %v", err)
		}
		resp.Body.Close()
		checkChain(t, snap.ActiveSpans)
		mresp, err := http.Get(s.srv.URL + "/metrics")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, mresp.Body)
		mresp.Body.Close()
		fresp, err := http.Get(s.srv.URL + "/debug/flightrecorder")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, fresp.Body)
		fresp.Body.Close()
		// /critpath over a partial graph must stay valid JSON mid-run.
		cresp, err := http.Get(s.srv.URL + "/critpath?k=3")
		if err != nil {
			t.Error(err)
			return
		}
		var cp obs.CritPathResponse
		if err := json.NewDecoder(cresp.Body).Decode(&cp); err != nil {
			t.Errorf("mid-run /critpath is not valid JSON: %v", err)
		}
		cresp.Body.Close()
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

	// Each run's span stack unwinds within its own run — a span ended on
	// the wrong run would leave the other's stack open.
	for name, s := range map[string]*stack{"A": a, "B": b} {
		if open := s.run.LiveSpans(); len(open) != 0 {
			t.Errorf("run %s: spans still open: %+v", name, open)
		}
		// Exactly one learn span each: the other run's spans never leaked in.
		resp, err := http.Get(s.srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), `sirl_span_calls{span="learn"} 1`) {
			t.Errorf("run %s: /metrics does not show exactly one learn span:\n%s", name, body)
		}
	}

	// Span graphs must be disjoint: process-unique span and round IDs mean
	// no ID appears in both graphs, every span's parent resolves within its
	// own graph, and each graph holds exactly one learn root.
	recsA, recsB := a.graph.Records(), b.graph.Records()
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
			t.Errorf("span ID %d appears in both runs' graphs", r.ID)
		}
		if r.Round != 0 && roundsA[r.Round] {
			t.Errorf("round ID %d appears in both runs' graphs", r.Round)
		}
	}
	for name, recs := range map[string][]obs.SpanRecord{"A": recsA, "B": recsB} {
		g := obs.BuildGraph(recs)
		var learnRoots int
		for _, root := range g.Roots {
			if root.Name == "learn" {
				learnRoots++
			} else if root.ParentID != 0 {
				t.Errorf("run %s: span %d (%s) has parent %d outside its own graph",
					name, root.ID, root.Name, root.ParentID)
			}
		}
		if learnRoots != 1 {
			t.Errorf("run %s: %d learn roots, want exactly 1", name, learnRoots)
		}
	}
}
