package obs

import (
	"testing"
	"time"
)

func TestParseSlowdown(t *testing.T) {
	if s, err := ParseSlowdown(""); s != nil || err != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", s, err)
	}
	s, err := ParseSlowdown("negative_reduction=250ms, beam_round=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if s.delays["negative_reduction"] != 250*time.Millisecond || s.delays["beam_round"] != time.Millisecond {
		t.Errorf("delays = %v", s.delays)
	}
	for _, bad := range []string{"noequals", "=5ms", "kind=", "kind=potato", "kind=-1s"} {
		if _, err := ParseSlowdown(bad); err == nil {
			t.Errorf("ParseSlowdown(%q): want error", bad)
		}
	}
}

// TestSlowdownInflatesSpanDuration: the sleep lands inside the span (after
// the Start stamp), so the configured kind's recorded duration grows —
// which is exactly what makes the injected phase rank first in an
// obsreport -attrib diff.
func TestSlowdownInflatesSpanDuration(t *testing.T) {
	slow, err := ParseSlowdown("slowed=30ms")
	if err != nil {
		t.Fatal(err)
	}
	graph := NewGraphSink(0)
	r := NewRun(MultiSpanSink(slow, graph), nil)
	r.StartSpan("slowed").End()
	r.StartSpan("untouched").End()
	recs := graph.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if d := time.Duration(recs[0].DurNS); recs[0].Name != "slowed" || d < 30*time.Millisecond {
		t.Errorf("slowed span dur = %v, want >= 30ms", d)
	}
	if d := time.Duration(recs[1].DurNS); d > 20*time.Millisecond {
		t.Errorf("untouched span dur = %v, want well under the delay", d)
	}
}
