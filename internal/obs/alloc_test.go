package obs

import (
	"testing"
	"time"
)

// TestNilRunFastPathAllocs pins the contract the learner hot paths rely
// on: with observability off (nil *Run), every instrumentation call is a
// pointer test and nothing else — zero allocations. It covers every Run
// and Span method. Call sites that pass fields guard them behind
// Spanning(), so the no-field forms below are the ones that run
// uninstrumented.
func TestNilRunFastPathAllocs(t *testing.T) {
	var r *Run
	var fr *FlightRecorder
	cases := map[string]func(){
		"Registry":       func() { _ = r.Registry() },
		"Inc":            func() { r.Inc(CCoverageTests) },
		"Add":            func() { r.Add(CTuplesScanned, 42) },
		"Heartbeat":      func() { r.Heartbeat() },
		"WithProvenance": func() { _ = r.WithProvenance(nil) },
		"Prov":           func() { _ = r.Prov() },
		"Sample":         func() { r.Sample() },
		"Spanning":       func() { _ = r.Spanning() },
		"Span":           func() { r.StartSpan("learn").End() },
		"CurrentSpan":    func() { _ = r.CurrentSpan() },
		"WorkerSpan":     func() { r.StartWorkerSpan(nil, "shard", 1, 0).End() },
		"Annotate":       func() { r.StartSpan("learn").Annotate() },
		"LiveSpans":      func() { _ = r.LiveSpans() },
		"FlightRecord":   func() { fr.Record(FKMark, "m", 0, 0) },
		"StartWatchdog":  func() { StartWatchdog(r, time.Second, nil).Stop() },
	}
	for name, f := range cases {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s on nil run: %v allocs/op, want 0", name, allocs)
		}
	}
}
