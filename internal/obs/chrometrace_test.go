package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// chromeTrace mirrors the trace-event envelope for decoding in tests.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func TestChromeTraceSinkSpans(t *testing.T) {
	var buf strings.Builder
	sink := NewChromeTraceSink(&buf)
	r := NewRun(sink, nil)

	root := r.StartSpan("learn", F("learner", "castor"))
	time.Sleep(time.Millisecond)
	child := r.StartSpan("beam_round", F("iter", 0))
	child.End()
	root.End()
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var tr chromeTrace
	if err := json.Unmarshal([]byte(buf.String()), &tr); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}
	if len(tr.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(tr.TraceEvents))
	}
	// Ends arrive innermost-first: beam_round then learn.
	br, learn := tr.TraceEvents[0], tr.TraceEvents[1]
	if br.Name != "beam_round" || learn.Name != "learn" {
		t.Fatalf("event names = %q, %q", br.Name, learn.Name)
	}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("%s: ph = %q, want X", e.Name, e.Ph)
		}
		if e.Pid != 1 || e.Tid != 1 {
			t.Errorf("%s: pid/tid = %d/%d, want 1/1", e.Name, e.Pid, e.Tid)
		}
		if e.Args["span_id"] == nil {
			t.Errorf("%s: missing span_id arg", e.Name)
		}
	}
	if learn.Args["learner"] != "castor" {
		t.Errorf("learn args = %v, want learner=castor", learn.Args)
	}
	// The parent slice must contain the child slice in time.
	if learn.Ts > br.Ts || learn.Ts+learn.Dur < br.Ts+br.Dur {
		t.Errorf("learn [%d,%d] does not contain beam_round [%d,%d]",
			learn.Ts, learn.Ts+learn.Dur, br.Ts, br.Ts+br.Dur)
	}
	if learn.Dur < 1000 {
		t.Errorf("learn dur = %dus, want >= 1000 (slept 1ms)", learn.Dur)
	}
}

func TestChromeTraceSinkEmptyTraceIsValid(t *testing.T) {
	var buf strings.Builder
	sink := NewChromeTraceSink(&buf)
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var tr chromeTrace
	if err := json.Unmarshal([]byte(buf.String()), &tr); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
}

func TestChromeTraceSinkIgnoresEventsAfterClose(t *testing.T) {
	var buf strings.Builder
	sink := NewChromeTraceSink(&buf)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	NewRun(sink, nil).StartSpan("late").End()
	var tr chromeTrace
	if err := json.Unmarshal([]byte(buf.String()), &tr); err != nil {
		t.Fatalf("post-Close span corrupted the JSON: %v", err)
	}
	if len(tr.TraceEvents) != 0 {
		t.Errorf("got %d events after Close, want 0", len(tr.TraceEvents))
	}
}

func TestCreateChromeTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	sink, err := CreateChromeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRun(sink, nil)
	r.StartSpan("learn").End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("file is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) != 1 {
		t.Errorf("got %d events, want 1", len(tr.TraceEvents))
	}
}

func TestChromeTraceSinkStickyError(t *testing.T) {
	sink := NewChromeTraceSink(&failWriter{n: 4})
	r := NewRun(sink, nil)
	for i := 0; i < 50; i++ {
		r.StartSpan("learn").End()
	}
	if err := sink.Close(); err == nil {
		t.Fatal("Close returned nil after failed writes")
	}
}
