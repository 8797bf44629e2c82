package obs

import (
	"errors"
	"testing"
	"time"
)

// recordSink captures span lifecycle notifications for assertions.
type recordSink struct {
	started []*Span
	ended   []*Span
	durs    []time.Duration
}

func (r *recordSink) SpanStart(s *Span) { r.started = append(r.started, s) }
func (r *recordSink) SpanEnd(s *Span, d time.Duration) {
	r.ended = append(r.ended, s)
	r.durs = append(r.durs, d)
}

func TestNilRunSpansAreSafe(t *testing.T) {
	var r *Run
	if r.Spanning() {
		t.Fatal("nil run reports Spanning")
	}
	s := r.StartSpan("learn", F("k", 1))
	if s != nil {
		t.Fatalf("nil run returned a span: %+v", s)
	}
	s.Annotate(F("k", 2)) // must not panic
	s.End()               // must not panic
}

func TestSpanNesting(t *testing.T) {
	sink := &recordSink{}
	r := NewRun(sink, nil)
	if !r.Spanning() {
		t.Fatal("span-only run does not report Spanning")
	}

	root := r.StartSpan("learn")
	child := r.StartSpan("covering_iteration")
	grand := r.StartSpan("bottom_clause")
	if root.ParentID != 0 {
		t.Errorf("root ParentID = %d, want 0", root.ParentID)
	}
	if child.ParentID != root.ID {
		t.Errorf("child ParentID = %d, want %d", child.ParentID, root.ID)
	}
	if grand.ParentID != child.ID {
		t.Errorf("grandchild ParentID = %d, want %d", grand.ParentID, child.ID)
	}
	grand.End()
	// After ending the innermost span, new spans parent under its parent.
	sibling := r.StartSpan("beam_round")
	if sibling.ParentID != child.ID {
		t.Errorf("sibling ParentID = %d, want %d", sibling.ParentID, child.ID)
	}
	sibling.End()
	child.End()
	root.End()

	if len(sink.started) != 4 || len(sink.ended) != 4 {
		t.Fatalf("sink saw %d starts, %d ends; want 4, 4", len(sink.started), len(sink.ended))
	}
	// Ends arrive innermost-first.
	if sink.ended[0] != grand || sink.ended[3] != root {
		t.Error("span end order mismatch")
	}
	for _, d := range sink.durs {
		if d < 0 {
			t.Errorf("negative span duration %v", d)
		}
	}
}

func TestSpanIDsAreUnique(t *testing.T) {
	sink := &recordSink{}
	r := NewRun(sink, nil)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		s := r.StartSpan("learn")
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
		s.End()
	}
}

func TestSpanRegistryAggregates(t *testing.T) {
	reg := NewRegistry()
	r := NewRun(nil, reg) // registry alone activates spans
	if !r.Spanning() {
		t.Fatal("registry run does not report Spanning")
	}
	for i := 0; i < 3; i++ {
		s := r.StartSpan("beam_round")
		time.Sleep(time.Millisecond)
		s.End()
	}
	rep := reg.Snapshot()
	if got := rep.Spans["beam_round"].Seconds; got < 0.003 {
		t.Errorf("beam_round seconds = %v, want >= 0.003", got)
	}
	st, ok := rep.Spans["beam_round"]
	if !ok || st.Calls != 3 {
		t.Fatalf("snapshot spans = %+v, want beam_round with 3 calls", rep.Spans)
	}
}

func TestSpanAnnotate(t *testing.T) {
	sink := &recordSink{}
	r := NewRun(sink, nil)
	s := r.StartSpan("learn", F("a", 1))
	s.Annotate(F("b", 2))
	s.End()
	if len(s.Fields) != 2 || s.Fields[0].Key != "a" || s.Fields[1].Key != "b" {
		t.Errorf("fields = %+v, want [a b]", s.Fields)
	}
}

func TestMultiSpanSink(t *testing.T) {
	a, b := &recordSink{}, &recordSink{}
	if MultiSpanSink() != nil || MultiSpanSink(nil, nil) != nil {
		t.Fatal("empty MultiSpanSink is not nil")
	}
	if MultiSpanSink(a) != SpanSink(a) {
		t.Fatal("single MultiSpanSink did not collapse")
	}
	r := NewRun(MultiSpanSink(a, nil, b), nil)
	r.StartSpan("learn").End()
	if len(a.ended) != 1 || len(b.ended) != 1 {
		t.Errorf("fan-out missed a sink: a=%d b=%d", len(a.ended), len(b.ended))
	}
}

func TestWithPhaseLabelRunsFunction(t *testing.T) {
	ran := false
	WithPhaseLabel("coverage_testing", func() { ran = true })
	if !ran {
		t.Fatal("WithPhaseLabel did not invoke the function")
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestJSONLSinkStickyWriteError(t *testing.T) {
	s := NewJSONLSink(&failWriter{n: 8})
	r := NewRun(s, nil)
	for i := 0; i < 100; i++ {
		r.StartSpan("covering_iteration").End()
	}
	err := s.Flush()
	if err == nil {
		t.Fatal("Flush returned nil after failed writes")
	}
	// The error is sticky: later Flush and Close keep reporting it.
	if again := s.Flush(); again != err {
		t.Errorf("second Flush = %v, want the latched %v", again, err)
	}
	if cerr := s.Close(); cerr != err {
		t.Errorf("Close = %v, want the latched %v", cerr, err)
	}
}
