package obs

import (
	"testing"
	"time"
)

func TestWatchdogNilAndDisabledCases(t *testing.T) {
	if w := StartWatchdog(nil, time.Second, nil); w != nil {
		t.Error("nil run did not yield a nil watchdog")
	}
	run := NewRun(nil, NewRegistry())
	if w := StartWatchdog(run, 0, nil); w != nil {
		t.Error("zero stall did not yield a nil watchdog")
	}
	var w *Watchdog
	w.Stop() // must not panic
	if w.Trips() != 0 {
		t.Error("nil Trips != 0")
	}
}

func TestWatchdogTripsOnStall(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	sp := run.StartSpan("learn")
	defer sp.End()

	infos := make(chan StallInfo, 4)
	wd := StartWatchdog(run, 20*time.Millisecond, func(si StallInfo) { infos <- si })
	defer wd.Stop()

	// No heartbeats arrive, so the watchdog must trip within a few stall
	// intervals.
	var si StallInfo
	select {
	case si = <-infos:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never tripped on a silent run")
	}
	if si.Stalled < 20*time.Millisecond {
		t.Errorf("stalled = %v, want >= 20ms", si.Stalled)
	}
	if si.Trips != 1 || wd.Trips() != 1 {
		t.Errorf("trips = %d/%d, want 1", si.Trips, wd.Trips())
	}
	if len(si.Spans) != 1 || si.Spans[0].Name != "learn" {
		t.Errorf("live span stack = %+v, want [learn]", si.Spans)
	}
	if got := reg.Get(CWatchdogStalls); got != 1 {
		t.Errorf("watchdog_stalls counter = %d, want 1", got)
	}
}

func TestWatchdogOneTripPerEpisode(t *testing.T) {
	run := NewRun(nil, NewRegistry())
	infos := make(chan StallInfo, 8)
	wd := StartWatchdog(run, 15*time.Millisecond, func(si StallInfo) { infos <- si })
	defer wd.Stop()

	select {
	case <-infos:
	case <-time.After(5 * time.Second):
		t.Fatal("no first trip")
	}
	// The stall continues but the watchdog stays quiet until progress
	// resumes: one trip per episode.
	select {
	case si := <-infos:
		t.Fatalf("second trip (%+v) without intervening progress", si)
	case <-time.After(100 * time.Millisecond):
	}
	if wd.Trips() != 1 {
		t.Errorf("trips = %d, want 1", wd.Trips())
	}
}

func TestWatchdogRearmsOnProgress(t *testing.T) {
	run := NewRun(nil, NewRegistry())
	infos := make(chan StallInfo, 8)
	wd := StartWatchdog(run, 15*time.Millisecond, func(si StallInfo) { infos <- si })
	defer wd.Stop()

	select {
	case <-infos:
	case <-time.After(5 * time.Second):
		t.Fatal("no first trip")
	}
	// Progress resumes: heartbeats flow long enough for the watchdog's
	// ticker to observe movement, then stop again.
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		run.Heartbeat()
		time.Sleep(time.Millisecond)
	}
	select {
	case si := <-infos:
		if si.Trips != 2 {
			t.Errorf("second episode trips = %d, want 2", si.Trips)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not re-arm after progress resumed")
	}
}

func TestWatchdogQuietWhileProgressing(t *testing.T) {
	run := NewRun(nil, NewRegistry())
	infos := make(chan StallInfo, 8)
	wd := StartWatchdog(run, 25*time.Millisecond, func(si StallInfo) { infos <- si })

	// Keep the heartbeat moving for several stall intervals: no trip.
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		run.Heartbeat()
		time.Sleep(time.Millisecond)
	}
	wd.Stop()
	select {
	case si := <-infos:
		t.Fatalf("watchdog tripped (%+v) on a progressing run", si)
	default:
	}
}

// TestLiveSpans: the live stack the watchdog reports is the learner
// goroutine's open spans, innermost first, one parent chain, each with a
// positive elapsed time; worker spans never enter it, and it empties once
// the spans end.
func TestLiveSpans(t *testing.T) {
	run := NewRun(nil, NewRegistry())
	root := run.StartSpan("learn", F("learner", "castor"))
	child := run.StartSpan("beam_round")
	shard := run.StartWorkerSpan(child, "shard_candidate_scoring", 1, 0)
	time.Sleep(2 * time.Millisecond)

	live := run.LiveSpans()
	if len(live) != 2 || live[0].Name != "beam_round" || live[1].Name != "learn" {
		t.Fatalf("live spans = %+v, want beam_round then learn", live)
	}
	if live[0].ID != child.ID || live[0].Parent != root.ID || live[1].Parent != 0 {
		t.Errorf("live spans = %+v, want one parent chain beam_round → learn", live)
	}
	for _, s := range live {
		if s.ElapsedSeconds <= 0 {
			t.Errorf("span %s elapsed = %v, want > 0", s.Name, s.ElapsedSeconds)
		}
	}

	shard.End()
	child.End()
	root.End()
	if live := run.LiveSpans(); len(live) != 0 {
		t.Errorf("live spans after End = %+v, want none", live)
	}
}
