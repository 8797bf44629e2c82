package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestChromeTraceGolden pins the exporter's byte-level schema against a
// golden file, so accidental format drift (arg renames, tid remapping,
// timestamp units) fails loudly instead of silently breaking Perfetto
// imports and the tools that read the span_id/parent/worker/round args.
// The trace covers every output shape: a root slice on the owning
// goroutine's track and two worker slices from one pooled round on their
// own tracks (with worker/round args).
//
// Regenerate after an intentional schema change with
//
//	go test ./internal/obs -run ChromeTraceGolden -args -update
func TestChromeTraceGolden(t *testing.T) {
	var buf strings.Builder
	s := NewChromeTraceSink(&buf)
	s.base = time.Unix(1000, 0) // fixed epoch: timestamps must be deterministic

	at := func(ms int) time.Time { return s.base.Add(time.Duration(ms) * time.Millisecond) }
	root := &Span{ID: 1, Name: "learn", Start: at(10), Worker: -1,
		Fields: []Field{F("learner", "castor")}}
	w0 := &Span{ID: 2, ParentID: 1, Name: "shard_candidate_scoring", Start: at(12),
		Worker: 0, Round: 1, Fields: []Field{F("tasks", 4)}}
	w1 := &Span{ID: 3, ParentID: 1, Name: "shard_candidate_scoring", Start: at(12),
		Worker: 1, Round: 1, Fields: []Field{F("tasks", 5)}}

	s.SpanEnd(w0, 8*time.Millisecond)
	s.SpanEnd(w1, 11*time.Millisecond)
	s.SpanEnd(root, 50*time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := []byte(buf.String())

	goldenPath := filepath.Join("testdata", "chrometrace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -args -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace output drifted from golden file\n got: %s\nwant: %s", got, want)
	}

	// Independent of the exact bytes, the golden file itself must satisfy
	// the schema contract: valid trace-event JSON, worker slices on tid
	// 2+worker, graph args present.
	var tr chromeTrace
	if err := json.Unmarshal(want, &tr); err != nil {
		t.Fatalf("golden file is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) != 3 {
		t.Fatalf("golden has %d events, want 3", len(tr.TraceEvents))
	}
	byName := func(name string, worker float64) *chromeEvent {
		for i := range tr.TraceEvents {
			e := &tr.TraceEvents[i]
			if e.Name == name && (worker < 0 || e.Args["worker"] == worker) {
				return e
			}
		}
		t.Fatalf("no event %q (worker %v) in golden", name, worker)
		return nil
	}
	if e := byName("learn", -1); e.Tid != 1 || e.Ph != "X" || e.Args["span_id"] != float64(1) {
		t.Errorf("learn slice = tid %d ph %q args %v", e.Tid, e.Ph, e.Args)
	}
	for w, wantTid := range map[float64]int{0: 2, 1: 3} {
		e := byName("shard_candidate_scoring", w)
		if e.Tid != wantTid {
			t.Errorf("worker %v slice on tid %d, want %d", w, e.Tid, wantTid)
		}
		if e.Args["parent"] != float64(1) || e.Args["round"] != float64(1) {
			t.Errorf("worker %v args = %v, want parent=1 round=1", w, e.Args)
		}
	}
}
