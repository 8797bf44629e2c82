package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// schema share a trace id; parent is the index of the enclosing span, -1
// for a root.
type span struct {
	name       string
	trace      int
	parent     int
	start, end time.Duration // since the recorder's base
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, trace, parent int) int {
	r.spans = append(r.spans, span{name: name, trace: trace, parent: parent, start: time.Since(r.base)})
	return len(r.spans) - 1
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.end = time.Since(r.base)
	return s.end - s.start
}

// call runs f inside a span named name under parent and returns f's
// duration.
func (r *recorder) call(name string, parent int, f func()) time.Duration {
	id := r.begin(name, r.spans[parent].trace, parent)
	f()
	return r.end(id)
}

// selfTimes returns each span's duration minus the part of it its
// children cover. Children of one parent run one after another, so their
// durations add up.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	name        string
	count       int
	total, self time.Duration
}

// byName aggregates spans per name, largest self time first.
func (r *recorder) byName() []nameStat {
	self := r.selfTimes()
	idx := map[string]int{}
	var out []nameStat
	for i, s := range r.spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(out)
			idx[s.name] = j
			out = append(out, nameStat{name: s.name})
		}
		out[j].count++
		out[j].total += s.end - s.start
		out[j].self += self[i]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeSelfTable prints the per-name self-time table.
func (r *recorder) writeSelfTable(w io.Writer) {
	stats := r.byName()
	var all time.Duration
	for _, s := range stats {
		all += s.self
	}
	fmt.Fprintf(w, "%-34s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self_%")
	for _, s := range stats {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f %7.2f\n", s.name, s.count,
			ms(s.total), ms(s.self), 100*ratio(float64(s.self), float64(all)))
	}
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, loadable
// in Perfetto: one complete slice per span, one track per trace id named
// by traceNames, with span_id, parent and trace in each slice's args.
func (r *recorder) writeChromeTrace(path string, traceNames []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	events := make([]traceEvent, 0, len(r.spans)+len(traceNames))
	for t, name := range traceNames {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: t + 1,
			Args: map[string]any{"name": name}})
	}
	for i, s := range r.spans {
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.trace + 1,
			Ts: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"span_id": i, "parent": s.parent, "trace": s.trace},
		})
	}
	enc := json.NewEncoder(bw)
	werr := enc.Encode(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{"ms", events})
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
