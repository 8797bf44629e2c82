package obs

import (
	"sync/atomic"
	"time"
)

// The stall watchdog turns "is it stuck or just slow?" into a signal. A
// run's hot paths emit heartbeats (span begins/ends, per-example coverage
// tests, θ-subsumption node batches, covering iterations); a per-run
// goroutine watches the heartbeat counter and, when it stops moving for a
// configured interval, trips: it bumps the watchdog_stalls counter,
// snapshots the live span stack, and invokes the caller's stall hook (the
// binaries log the stack, record the stall in the flight recorder and
// dump it). The watchdog re-arms once progress resumes, so a run that
// stalls twice trips twice.

// LiveSpan is one entry of a live span-stack snapshot, innermost first.
type LiveSpan struct {
	// ID is the span's process-unique ID; Parent is its parent's (0 for
	// the root).
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name is the span kind.
	Name string `json:"name"`
	// ElapsedSeconds is how long the span has been open.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// LiveSpans snapshots the run's currently-open span stack, innermost
// first — the stall watchdog's report. Worker
// spans never enter the stack, so it is the learner goroutine's view.
// Nil-safe; an unobserved run reports an empty stack.
func (r *Run) LiveSpans() []LiveSpan {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.spanMu.Lock()
	var out []LiveSpan
	for s := r.cur; s != nil; s = s.parent {
		out = append(out, LiveSpan{ID: s.ID, Parent: s.ParentID, Name: s.Name, ElapsedSeconds: now.Sub(s.Start).Seconds()})
	}
	r.spanMu.Unlock()
	return out
}

// StallInfo describes one watchdog trip.
type StallInfo struct {
	// Stalled is how long the heartbeat counter has been motionless.
	Stalled time.Duration
	// Spans is the live span stack at detection time, innermost first.
	Spans []LiveSpan
	// Trips counts this watchdog's trips so far, this one included.
	Trips int64
}

// Watchdog is a running stall detector. A nil *Watchdog (returned for
// unobserved runs or a non-positive stall interval) is a valid nop.
type Watchdog struct {
	run     *Run
	stall   time.Duration
	onStall func(StallInfo)
	stop    chan struct{}
	done    chan struct{}
	trips   atomic.Int64
}

// StartWatchdog begins watching the run's heartbeat counter: if it does
// not move for at least stall, the watchdog trips — watchdog_stalls is
// incremented and onStall (optional) runs on the watchdog goroutine with
// the live span stack. It returns nil — and watches nothing — for a nil run
// or non-positive stall.
func StartWatchdog(run *Run, stall time.Duration, onStall func(StallInfo)) *Watchdog {
	if run == nil || stall <= 0 {
		return nil
	}
	w := &Watchdog{run: run, stall: stall, onStall: onStall,
		stop: make(chan struct{}), done: make(chan struct{})}
	go w.watch()
	return w
}

// Trips returns how many times the watchdog has tripped.
func (w *Watchdog) Trips() int64 {
	if w == nil {
		return 0
	}
	return w.trips.Load()
}

// Stop shuts the watchdog down and waits for its goroutine to exit.
// Nil-safe and idempotent via the usual close-once discipline of the
// single owner.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	close(w.stop)
	<-w.done
}

// watch is the detector loop. The tick is a quarter of the stall
// interval, clamped to [1ms, 1s], so detection latency stays within ~25%
// of the configured stall without busy-polling long intervals.
func (w *Watchdog) watch() {
	defer close(w.done)
	tick := w.stall / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	last := w.run.beat.Load()
	lastMove := time.Now()
	armed := true
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			b := w.run.beat.Load()
			if b != last {
				last = b
				lastMove = now
				armed = true
				continue
			}
			if !armed || now.Sub(lastMove) < w.stall {
				continue
			}
			armed = false // one trip per stall episode; re-armed on movement
			w.trip(now.Sub(lastMove))
		}
	}
}

// trip reports one detected stall.
func (w *Watchdog) trip(stalled time.Duration) {
	trips := w.trips.Add(1)
	w.run.Inc(CWatchdogStalls)
	if w.onStall != nil {
		w.onStall(StallInfo{Stalled: stalled, Spans: w.run.LiveSpans(), Trips: trips})
	}
}
