package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"
)

// fileWriter is the buffered output of the artifact writers (JSONLSink,
// ChromeTraceSink, Prov, the flight recorder's dumps): a bufio writer, the
// first error any write hit, kept so a run that wrote into a full disk
// fails loudly at Flush or Close, and the file when the writer owns it.
// Callers hold their own lock.
type fileWriter struct {
	w   *bufio.Writer
	c   io.Closer // non-nil when the writer owns the file
	err error     // first error, sticky
}

func newFileWriter(w io.Writer) fileWriter { return fileWriter{w: bufio.NewWriter(w)} }

// latch keeps err when it is the first error.
func (f *fileWriter) latch(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

func (f *fileWriter) write(b []byte) {
	_, err := f.w.Write(b)
	f.latch(err)
}

// flush forces buffered output out and returns the first error.
func (f *fileWriter) flush() error {
	f.latch(f.w.Flush())
	return f.err
}

// close flushes and, when the writer owns its file, closes it (even when a
// write already failed). The first error wins.
func (f *fileWriter) close() error {
	err := f.flush()
	if f.c != nil {
		if cerr := f.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
		f.c = nil
	}
	return err
}

// JSONLSink writes one JSON object per finished span, suitable for
// machine-read run traces (the -trace flag); the line format is
// documented at SpanEnd.
type JSONLSink struct {
	mu  sync.Mutex
	out fileWriter
}

// NewJSONLSink wraps a writer. Call Close (or Flush) before reading what
// was written: output is buffered.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{out: newFileWriter(w)}
}

// CreateJSONLFile creates (truncating) a trace file and returns a sink
// that owns it; Close flushes and closes the file.
func CreateJSONLFile(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewJSONLSink(f)
	s.out.c = f
	return s, nil
}

// SpanStart implements SpanSink as a no-op: span lines are written whole
// at SpanEnd, when the duration is known, which keeps the trace one line
// per span.
func (s *JSONLSink) SpanStart(*Span) {}

// SpanEnd implements SpanSink. Each finished span becomes one line
//
//	{"t":…,"span":"beam_round","id":7,"parent":3,"worker":-1,"round":0,
//	 "start_ns":…,"dur_ns":…,…fields}
//
// with the span's fields flattened into the object in emission order
// (values that do not marshal degrade to their String() rendering rather
// than dropping the line). worker is -1 for spans on the run's owning
// goroutine, the pool-worker index otherwise; round joins the shard spans
// of one pooled drain (0 = none). The keys t/span/id/parent/worker/round/
// start_ns/dur_ns are reserved — span fields with those names would
// shadow them in consumers, so field keys avoid them by convention.
func (s *JSONLSink) SpanEnd(sp *Span, d time.Duration) {
	buf := make([]byte, 0, 192)
	buf = append(buf, `{"t":`...)
	buf = appendJSONValue(buf, sp.Start.UTC().Format(time.RFC3339Nano))
	buf = append(buf, `,"span":`...)
	buf = appendJSONValue(buf, sp.Name)
	buf = append(buf, `,"id":`...)
	buf = appendJSONValue(buf, sp.ID)
	buf = append(buf, `,"parent":`...)
	buf = appendJSONValue(buf, sp.ParentID)
	buf = append(buf, `,"worker":`...)
	buf = appendJSONValue(buf, sp.Worker)
	buf = append(buf, `,"round":`...)
	buf = appendJSONValue(buf, sp.Round)
	buf = append(buf, `,"start_ns":`...)
	buf = appendJSONValue(buf, sp.Start.UnixNano())
	buf = append(buf, `,"dur_ns":`...)
	buf = appendJSONValue(buf, int64(d))
	buf = appendFields(buf, sp.Fields)
	buf = append(buf, '}', '\n')
	s.mu.Lock()
	s.out.write(buf) // SpanEnd cannot return an error; Flush/Close report it
	s.mu.Unlock()
}

// appendFields appends ,"key":value for every field, in order.
func appendFields(buf []byte, fields []Field) []byte {
	for _, f := range fields {
		buf = append(buf, ',')
		buf = appendJSONValue(buf, f.Key)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, f.Value)
	}
	return buf
}

func appendJSONValue(buf []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(stringify(v))
	}
	return append(buf, b...)
}

func stringify(v any) string {
	type stringer interface{ String() string }
	if s, ok := v.(stringer); ok {
		return s.String()
	}
	return "unrepresentable"
}

// Flush forces buffered lines out. It returns the first error any write
// hit, so a run that traced into a full disk fails loudly instead of
// silently writing a truncated trace.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.flush()
}

// Close flushes and, when the sink owns its file, closes it (even when a
// write already failed). The first error wins.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.close()
}

// TextSink logs one human-readable line per finished span of the
// learner goroutine through log/slog's text format — the -v output:
//
//	time=… level=INFO msg=beam_round dur=1.2ms iter=0 beam=1 candidates=8 best=5
//
// Worker spans (the coverage pool's shard_* spans) are not printed: they
// run on other goroutines and would drown the learner's narrative.
type TextSink struct{ l *slog.Logger }

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink {
	return &TextSink{l: slog.New(slog.NewTextHandler(w, nil))}
}

// SpanStart implements SpanSink as a no-op: the line is written at
// SpanEnd, when the duration and the annotations are known.
func (s *TextSink) SpanStart(*Span) {}

// SpanEnd implements SpanSink.
func (s *TextSink) SpanEnd(sp *Span, d time.Duration) {
	if sp.Worker >= 0 {
		return
	}
	attrs := make([]slog.Attr, 0, len(sp.Fields)+1)
	attrs = append(attrs, slog.Duration("dur", d))
	for _, f := range sp.Fields {
		attrs = append(attrs, slog.Any(f.Key, f.Value))
	}
	s.l.LogAttrs(context.Background(), slog.LevelInfo, sp.Name, attrs...)
}
