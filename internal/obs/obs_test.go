package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRunIsSafe: every method of a nil *Run must be a no-op, since nil
// is the default in ilp.Params.
func TestNilRunIsSafe(t *testing.T) {
	var r *Run
	if r.Spanning() {
		t.Error("nil run claims to span")
	}
	if r.Registry() != nil {
		t.Error("nil run has a registry")
	}
	r.Inc(CCoverageTests)
	r.Add(CTuplesScanned, 7)
	r.Heartbeat()
	if sp := r.StartSpan("x", F("k", 1)); sp != nil {
		t.Error("nil run opened a span")
	}
}

func TestNewRunCollapsesToNil(t *testing.T) {
	if NewRun(nil, nil) != nil {
		t.Error("NewRun(nil, nil) must return the nop run")
	}
	if NewRun(nil, NewRegistry()) == nil {
		t.Error("registry-only run collapsed")
	}
	if NewRun(NewJSONLSink(&bytes.Buffer{}), nil) == nil {
		t.Error("sink-only run collapsed")
	}
}

func TestCounterNames(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		if c.String() == "" || c.String() == "unknown" {
			t.Errorf("counter %d has no name", c)
		}
	}
	if Counter(-1).String() != "unknown" || numCounters.String() != "unknown" {
		t.Error("out-of-range counters must stringify as unknown")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; run
// with -race this doubles as the data-race check for the worker pool.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				run.Inc(CCoverageTests)
				run.Add(CTuplesScanned, 2)
				run.StartWorkerSpan(nil, "shard", 1, 0).End()
			}
		}()
	}
	wg.Wait()
	if got := reg.Get(CCoverageTests); got != workers*each {
		t.Errorf("coverage_tests = %d, want %d", got, workers*each)
	}
	if got := reg.Get(CTuplesScanned); got != 2*workers*each {
		t.Errorf("tuples_scanned = %d, want %d", got, 2*workers*each)
	}
	if reg.Snapshot().Spans["shard"].Calls != workers*each {
		t.Error("span call count wrong")
	}
}

// TestSnapshotJSON: the report must round-trip as JSON with a stable
// schema — every counter present even when zero.
func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	run.Inc(CSubsumptionCalls)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if len(back.Counters) != int(numCounters) {
		t.Errorf("report has %d counters, want %d", len(back.Counters), numCounters)
	}
	if back.Counters["subsumption_calls"] != 1 {
		t.Errorf("subsumption_calls = %d", back.Counters["subsumption_calls"])
	}
}

func TestWriteSummarySkipsZeros(t *testing.T) {
	reg := NewRegistry()
	NewRun(nil, reg).Add(CBottomLiterals, 42)
	var buf bytes.Buffer
	reg.Snapshot().WriteSummary(&buf)
	out := buf.String()
	if !strings.Contains(out, "bottom_literals") || !strings.Contains(out, "42") {
		t.Errorf("summary missing nonzero counter:\n%s", out)
	}
	if strings.Contains(out, "armg_calls") {
		t.Errorf("summary shows zero counter:\n%s", out)
	}
}

// TestJSONLSink: every finished span becomes one line that parses as a
// standalone JSON object with the fixed t/span/id/... keys plus the
// span's own fields, in order.
func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	run := NewRun(sink, nil)
	outer := run.StartSpan("bottom_clause", F("seed", "advisedBy(s, p)"), F("try", 3))
	run.StartSpan("weird", F("val", map[string]int{"n": 1}), F("list", []string{"a", "b"})).End()
	outer.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %q does not parse: %v", sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	if lines[1]["span"] != "bottom_clause" || lines[1]["seed"] != "advisedBy(s, p)" || lines[1]["try"] != 3.0 {
		t.Errorf("outer span line = %v", lines[1])
	}
	if lines[0]["parent"] != lines[1]["id"] {
		t.Errorf("inner span parent %v, want %v", lines[0]["parent"], lines[1]["id"])
	}
	if _, err := time.Parse(time.RFC3339Nano, lines[1]["t"].(string)); err != nil {
		t.Errorf("timestamp does not parse: %v", err)
	}
	if lines[0]["list"].([]any)[1] != "b" {
		t.Errorf("slice field mangled: %v", lines[0])
	}
}

// TestJSONLSinkConcurrent verifies whole-line atomicity under concurrent
// writers (pool workers end their shard spans into one sink).
func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	run := NewRun(sink, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				run.StartWorkerSpan(nil, "shard", 1, w, F("i", i)).End()
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("interleaved line: %q", sc.Text())
		}
		n++
	}
	if n != 8*50 {
		t.Errorf("got %d lines, want %d", n, 8*50)
	}
}

// TestTextSink: -v prints one slog text line per finished learner span,
// with its duration and fields, and skips worker spans.
func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	run := NewRun(NewTextSink(&buf), nil)
	sp := run.StartSpan("covering_iteration", F("clauses", 0))
	run.StartWorkerSpan(sp, "shard_candidate_scoring", 1, 0).End()
	sp.Annotate(F("clause", "t(X) :- p(X)."), F("pos", 5))
	sp.End()
	out := buf.String()
	if !strings.Contains(out, "msg=covering_iteration") || !strings.Contains(out, "pos=5") ||
		!strings.Contains(out, "dur=") || !strings.Contains(out, `clause="t(X) :- p(X)."`) {
		t.Errorf("text sink output %q", out)
	}
	if strings.Contains(out, "shard_") || strings.Count(out, "\n") != 1 {
		t.Errorf("text sink printed a worker span or extra lines: %q", out)
	}
}
