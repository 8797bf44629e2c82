package obs

import (
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// ChromeTraceSink writes spans in the Chrome trace-event JSON format,
// loadable by Perfetto (ui.perfetto.dev) and chrome://tracing — the
// -chrometrace flag. Each finished span becomes a complete ("ph":"X")
// slice with its fields as args. Spans on the run's owning goroutine
// render on tid 1, where slices nest by time exactly as the span tree
// nests; pool-worker shard spans render on tid 2+worker, so a pooled
// round appears as parallel slices across worker tracks. Slice args carry
// span_id, parent, and — for worker spans — worker and round, so the
// span tree survives the export (chrometrace_golden_test.go pins this
// schema).
type ChromeTraceSink struct {
	mu   sync.Mutex
	out  fileWriter
	base time.Time // ts origin; Chrome wants microseconds from an epoch
	n    int       // events written, for comma placement
	done bool
}

// NewChromeTraceSink wraps a writer. Call Close before reading what was
// written: the JSON envelope is only complete then.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	s := &ChromeTraceSink{out: newFileWriter(w), base: time.Now()}
	s.out.write([]byte(`{"displayTimeUnit":"ms","traceEvents":[`))
	return s
}

// CreateChromeTraceFile creates (truncating) a trace file and returns a
// sink that owns it; Close completes the JSON and closes the file.
func CreateChromeTraceFile(path string) (*ChromeTraceSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewChromeTraceSink(f)
	s.out.c = f
	return s, nil
}

// SpanStart implements SpanSink; the slice is written whole at SpanEnd,
// so starts need no output.
func (s *ChromeTraceSink) SpanStart(*Span) {}

// SpanEnd implements SpanSink: one complete slice per finished span, on
// the owning goroutine's track (tid 1) or the span's worker track.
func (s *ChromeTraceSink) SpanEnd(sp *Span, d time.Duration) {
	tid := uint64(1)
	if sp.Worker >= 0 {
		tid = uint64(2 + sp.Worker)
	}
	buf := make([]byte, 0, 192)
	buf = append(buf, `{"name":`...)
	buf = appendJSONValue(buf, sp.Name)
	buf = append(buf, `,"ph":"X","ts":`...)
	buf = strconv.AppendInt(buf, sp.Start.Sub(s.base).Microseconds(), 10)
	buf = append(buf, `,"dur":`...)
	buf = strconv.AppendInt(buf, d.Microseconds(), 10)
	buf = append(buf, `,"pid":1,"tid":`...)
	buf = strconv.AppendUint(buf, tid, 10)
	buf = append(buf, `,"args":{"span_id":`...)
	buf = strconv.AppendUint(buf, sp.ID, 10)
	if sp.ParentID != 0 {
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, sp.ParentID, 10)
	}
	if sp.Worker >= 0 {
		buf = append(buf, `,"worker":`...)
		buf = strconv.AppendInt(buf, int64(sp.Worker), 10)
	}
	if sp.Round != 0 {
		buf = append(buf, `,"round":`...)
		buf = strconv.AppendUint(buf, sp.Round, 10)
	}
	buf = appendFields(buf, sp.Fields)
	buf = append(buf, '}', '}')

	s.mu.Lock()
	if !s.done {
		if s.n > 0 {
			s.out.write([]byte{','})
		}
		s.n++
		s.out.write(buf)
	}
	s.mu.Unlock()
}

// Close completes the JSON envelope, flushes and, when the sink owns its
// file, closes it. The first write error wins.
func (s *ChromeTraceSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		s.done = true
		s.out.write([]byte("]}\n"))
	}
	return s.out.close()
}
