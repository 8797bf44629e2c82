package obs

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// A span is a named, timed region of the learning pipeline with a
// parent, so a run becomes a tree — one span per Learn call, per
// covering-loop iteration, per bottom clause, per beam round, per
// coverage batch, per reduction. Spans are the run's only timing and
// narration primitive: exporters (the JSONL trace, the text log, the
// Chrome-trace sink) and the flight recorder consume them through
// SpanSink, and the Registry aggregates wall time, call counts and a
// duration histogram per span kind for the run report.
//
// Parentage is implicit: StartSpan parents the new span under the
// innermost span still open on the run. Learners start and end their
// spans on the learning goroutine (coverage *workers* are below span
// granularity), so the implicit stack reconstructs the call tree exactly;
// the stack itself is mutex-guarded, so concurrent misuse degrades
// parentage, never memory safety.

// spanIDs issues process-unique span IDs, so spans from several runs (the
// experiments binary learns many times) never collide in one export.
var spanIDs atomic.Uint64

// poolRoundIDs issues process-unique pool-round IDs. A round tags the
// shard spans of one worker-pool drain, so a trace groups them;
// process-uniqueness means rounds from concurrent Learns never collide.
var poolRoundIDs atomic.Uint64

// NextPoolRound allocates a fresh pool-round ID (never 0, which marks
// "no round" on a span).
func NextPoolRound() uint64 { return poolRoundIDs.Add(1) }

// Span is one open (or finished) region of a run. A nil *Span is the nop
// default returned by StartSpan on an unobserved run: End and Annotate on
// nil return immediately, so call sites need no guards.
type Span struct {
	run    *Run
	parent *Span

	// ID is unique per process; ParentID is 0 for root spans.
	ID       uint64
	ParentID uint64
	// Name is the span kind ("learn", "beam_round", …); aggregation and
	// export group by it.
	Name string
	// Start is the wall-clock start time.
	Start time.Time
	// Fields are the span's annotations, in emission order.
	Fields []Field
	// Worker is the pool-worker index that drained the span's region, or
	// -1 for spans on the run's owning goroutine (the default).
	Worker int
	// Round is the pool-round ID joining the shard spans of one pooled
	// drain; 0 for spans outside any round. Sibling spans sharing a round
	// form a fork/join group whose wall time is the slowest worker chain.
	Round uint64
}

// SpanSink consumes span lifecycle notifications. SpanStart runs before
// the span's region executes and SpanEnd after it, both on the goroutine
// that owns the span; implementations must be safe for use from multiple
// goroutines (several runs may share one sink).
type SpanSink interface {
	SpanStart(s *Span)
	SpanEnd(s *Span, d time.Duration)
}

// Spanning reports whether StartSpan would record anything. Call sites
// guard field construction with it: a field that builds a string (a
// clause, a literal) or any field list at all on a hot path.
func (r *Run) Spanning() bool {
	return r != nil && (r.reg != nil || r.spans != nil)
}

// StartSpan opens a span named name under the innermost open span of the
// run. It returns nil — and does nothing — when the run observes nothing,
// so uninstrumented paths pay one pointer test.
func (r *Run) StartSpan(name string, fields ...Field) *Span {
	if !r.Spanning() {
		return nil
	}
	s := &Span{run: r, ID: spanIDs.Add(1), Name: name, Start: time.Now(), Fields: fields, Worker: -1}
	r.spanMu.Lock()
	if r.cur != nil {
		s.parent = r.cur
		s.ParentID = r.cur.ID
	}
	r.cur = s
	r.spanMu.Unlock()
	r.beat.Add(1) // span progress doubles as a watchdog heartbeat
	if r.spans != nil {
		r.spans.SpanStart(s)
	}
	return s
}

// CurrentSpan returns the innermost span still open on the run's owning
// goroutine, or nil. Pool submitters capture it before fanning out so
// worker spans parent under the span whose region forked them.
func (r *Run) CurrentSpan() *Span {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	s := r.cur
	r.spanMu.Unlock()
	return s
}

// StartWorkerSpan opens a span with an explicit parent, worker index, and
// pool-round ID, without touching the run's implicit span stack — worker
// goroutines run concurrently, so pushing them onto the owning goroutine's
// stack would scramble parentage for everyone. End works as usual (the
// stack-revert in End is guarded, so a span that never entered the stack
// never pops it). Returns nil on an unobserved run.
func (r *Run) StartWorkerSpan(parent *Span, name string, round uint64, worker int, fields ...Field) *Span {
	if !r.Spanning() {
		return nil
	}
	s := &Span{run: r, ID: spanIDs.Add(1), Name: name, Start: time.Now(), Fields: fields, Worker: worker, Round: round}
	if parent != nil {
		s.parent = parent
		s.ParentID = parent.ID
	}
	r.beat.Add(1)
	if r.spans != nil {
		r.spans.SpanStart(s)
	}
	return s
}

// Annotate appends fields to the span (results known only at the end of
// the region: literals produced, candidates kept). Nil-safe.
func (s *Span) Annotate(fields ...Field) {
	if s == nil {
		return
	}
	s.Fields = append(s.Fields, fields...)
}

// End closes the span: the run's current span reverts to the parent, the
// registry accumulates the duration under the span's name, and sinks see
// SpanEnd. Nil-safe; ending a span twice double-counts, ending out of
// order only degrades parentage of later spans.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.Start)
	r := s.run
	if s.Worker < 0 {
		// Worker spans never enter the implicit stack, so they skip the
		// revert entirely rather than contend on spanMu from N goroutines.
		r.spanMu.Lock()
		if r.cur == s {
			r.cur = s.parent
		}
		r.spanMu.Unlock()
	}
	r.beat.Add(1) // span progress doubles as a watchdog heartbeat
	if r.reg != nil {
		r.reg.addSpan(s.Name, d)
	}
	if r.spans != nil {
		r.spans.SpanEnd(s, d)
	}
}

// multiSpanSink fans span notifications out to several sinks.
type multiSpanSink []SpanSink

func (m multiSpanSink) SpanStart(s *Span) {
	for _, k := range m {
		k.SpanStart(s)
	}
}

func (m multiSpanSink) SpanEnd(s *Span, d time.Duration) {
	for _, k := range m {
		k.SpanEnd(s, d)
	}
}

// MultiSpanSink combines span sinks, ignoring nils; nil when nothing
// remains, so NewRun still collapses to the nop run.
func MultiSpanSink(sinks ...SpanSink) SpanSink {
	var out multiSpanSink
	for _, k := range sinks {
		if k != nil {
			out = append(out, k)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// WithPhaseLabel runs f with the pprof label sirl_phase=phase attached to
// the goroutine, so CPU profiles slice worker time by pipeline stage
// (worker goroutines otherwise all stack below the pool plumbing).
// Intended to wrap a worker's whole drain loop, not individual items.
func WithPhaseLabel(phase string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("sirl_phase", phase), func(context.Context) { f() })
}
