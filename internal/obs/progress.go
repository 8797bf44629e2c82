package obs

import (
	"sync"
	"time"
)

// progress is the state behind the introspection server's /progress
// endpoint: what a multi-minute UW-CSE or HIV run is doing right now (the
// run's live span stack, the same one the stall watchdog reports) and how
// fast its counters are moving since the last look.
type progress struct {
	run  *Run
	mu   sync.Mutex
	last [numCounters]int64 // counter values at the previous snapshot
}

// Snapshot is the JSON shape of /progress.
type Snapshot struct {
	Time time.Time `json:"time"`
	// ActiveSpans is the learner goroutine's open span stack, innermost
	// first; each entry's parent is the next entry's id.
	ActiveSpans []LiveSpan `json:"active_spans"`
	// Counters is the registry state now; CounterDeltas is the movement
	// since the previous Snapshot call (zero-valued entries omitted), so
	// polling /progress shows rates without client-side bookkeeping.
	Counters      map[string]int64 `json:"counters,omitempty"`
	CounterDeltas map[string]int64 `json:"counter_deltas,omitempty"`
}

// snapshot captures the run's current state. Each call advances the delta
// baseline.
func (p *progress) snapshot() Snapshot {
	out := Snapshot{Time: time.Now(), ActiveSpans: p.run.LiveSpans()}
	if out.ActiveSpans == nil {
		out.ActiveSpans = []LiveSpan{}
	}
	reg := p.run.Registry()
	if reg == nil {
		return out
	}
	out.Counters = make(map[string]int64, numCounters)
	out.CounterDeltas = make(map[string]int64)
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := Counter(0); c < numCounters; c++ {
		v := reg.Get(c)
		out.Counters[c.String()] = v
		if d := v - p.last[c]; d != 0 {
			out.CounterDeltas[c.String()] = d
		}
		p.last[c] = v
	}
	return out
}
