package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTimelineNilAndUnobserved(t *testing.T) {
	if tl := StartTimeline(nil, time.Millisecond); tl != nil {
		t.Fatal("StartTimeline(nil run) != nil")
	}
	if tl := StartTimeline(NewRun(nil, nil), time.Millisecond); tl != nil {
		t.Fatal("StartTimeline(registry-less run) != nil")
	}
	var tl *Timeline
	tl.Stop() // must not panic
	if d := tl.Dump(nil, 0); len(d.Series) != 0 {
		t.Fatalf("nil timeline dump has %d series", len(d.Series))
	}
	if tl.Summary() != nil {
		t.Fatal("nil timeline summary != nil")
	}
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if !strings.Contains(buf.String(), "timeline_meta") {
		t.Fatalf("nil JSONL missing meta line: %q", buf.String())
	}
}

func TestTimelineSamplesCountersAndGauges(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	tl := StartTimeline(run, time.Hour) // only explicit ticks
	run.Add(CCoverageTests, 5)
	reg.SetGauge(GPoolBusyRatio, 0.75)
	tl.tick()
	run.Add(CCoverageTests, 3)
	tl.Stop() // final tick

	d := tl.Dump(nil, 0)
	pts := d.Series["coverage_tests"]
	if len(pts) != 2 {
		t.Fatalf("coverage_tests has %d points, want 2 (deltas 5 then 3): %+v", len(pts), pts)
	}
	if pts[0].V != 5 || pts[1].V != 3 {
		t.Errorf("coverage_tests deltas = %v, %v; want 5, 3", pts[0].V, pts[1].V)
	}
	if pts := d.Series[GPoolBusyRatio]; len(pts) < 2 || pts[0].V != 0.75 {
		t.Errorf("pool_busy_ratio series = %+v, want ≥2 points at 0.75", pts)
	}
	// The tick's own Run.Sample feeds the runtime bridge, so a GC-pause
	// series exists without any caller wiring.
	if _, ok := d.Series[GGCPauseSeconds]; !ok {
		t.Errorf("no %s series; have %v", GGCPauseSeconds, seriesNames(d))
	}
	if d.Meta.Ticks < 3 {
		t.Errorf("meta ticks = %d, want ≥ 3", d.Meta.Ticks)
	}
	// Counters that never moved stay invisible.
	if _, ok := d.Series[CWatchdogStalls.String()]; ok {
		t.Errorf("zero counter %s grew a series", CWatchdogStalls)
	}
}

func seriesNames(d TimelineDump) []string {
	out := make([]string, 0, len(d.Series))
	for n := range d.Series {
		out = append(out, n)
	}
	return out
}

func TestTimelineHistogramPercentileSeries(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	run.StartSpan("coverage_batch").End()
	tl := StartTimeline(run, time.Hour)
	tl.Stop()
	d := tl.Dump(nil, 0)
	if _, ok := d.Series["hist_span_coverage_batch_p50"]; !ok {
		t.Errorf("no hist_span_coverage_batch_p50 series; have %v", seriesNames(d))
	}
	if _, ok := d.Series["hist_span_coverage_batch_p99"]; !ok {
		t.Errorf("no hist_span_coverage_batch_p99 series; have %v", seriesNames(d))
	}
}

func TestTimelineDumpFilters(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	tl := StartTimeline(run, time.Hour)
	run.Inc(CCoverageTests)
	tl.tick()
	tl.Stop()
	d := tl.Dump(map[string]bool{"coverage_tests": true}, 0)
	if len(d.Series) != 1 || d.Series["coverage_tests"] == nil {
		t.Fatalf("filtered dump series = %v, want only coverage_tests", seriesNames(d))
	}
	// since in the future drops everything.
	d = tl.Dump(nil, time.Now().Add(time.Hour).UnixMilli())
	if len(d.Series) != 0 {
		t.Fatalf("future-since dump still has %d series", len(d.Series))
	}
}

func TestTimelineRingEviction(t *testing.T) {
	s := &tlSeries{ring: make([]TimelinePoint, 4)}
	for i := 0; i < 10; i++ {
		s.add(TimelinePoint{UnixMs: int64(i), V: float64(i)})
	}
	pts := s.points(0)
	if len(pts) != 4 {
		t.Fatalf("ring holds %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := int64(6 + i); p.UnixMs != want {
			t.Errorf("point %d time = %d, want %d (oldest-first, newest kept)", i, p.UnixMs, want)
		}
	}
	if s.count != 10 || s.min != 0 || s.max != 9 || s.last != 9 {
		t.Errorf("summary = count %d min %v max %v last %v, want 10/0/9/9 (whole run, not ring window)",
			s.count, s.min, s.max, s.last)
	}
}

func TestTimelineSeriesCapDropsLoudly(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	tl := StartTimeline(run, time.Hour)
	tl.mu.Lock()
	tl.maxSer = len(tl.series) // no room for anything new
	tl.mu.Unlock()
	reg.SetGauge("brand_new_gauge", 1)
	tl.tick()
	tl.Stop()
	d := tl.Dump(nil, 0)
	if _, ok := d.Series["brand_new_gauge"]; ok {
		t.Fatal("series created past the cap")
	}
	if d.Meta.DroppedSeries == 0 {
		t.Fatal("dropped series not reported in meta")
	}
}

func TestTimelineWriteJSONL(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	tl := StartTimeline(run, time.Hour)
	run.Add(CCoverageTests, 7)
	tl.tick()
	tl.Stop()
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var kinds []string
	points := 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		kind, _ := rec["kind"].(string)
		kinds = append(kinds, kind)
		if kind == "point" {
			points++
			if rec["series"] == "" || rec["t"] == nil {
				t.Fatalf("malformed point record %v", rec)
			}
		}
	}
	if len(kinds) == 0 || kinds[0] != "timeline_meta" {
		t.Fatalf("first record kind = %v, want timeline_meta", kinds)
	}
	if points == 0 {
		t.Fatal("no point records in JSONL dump")
	}
}

func TestTimelineSummary(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	tl := StartTimeline(run, time.Hour)
	reg.SetGauge(GPoolBusyRatio, 0.5)
	tl.tick()
	reg.SetGauge(GPoolBusyRatio, 0.9)
	tl.Stop()
	s := tl.Summary()
	if s == nil {
		t.Fatal("nil summary from live timeline")
	}
	st, ok := s.Series[GPoolBusyRatio]
	if !ok {
		t.Fatalf("summary lacks %s; have %d series", GPoolBusyRatio, len(s.Series))
	}
	if st.Min != 0.5 || st.Max != 0.9 || st.Last != 0.9 || st.Count != 2 {
		t.Errorf("summary stat = %+v, want min 0.5 max 0.9 last 0.9 count 2", st)
	}
	if st.Mean < 0.5 || st.Mean > 0.9 {
		t.Errorf("mean %v outside [0.5, 0.9]", st.Mean)
	}
}

func TestRunReportFoldsTimeline(t *testing.T) {
	rr := &RunReport{
		Timeline: &TimelineSummary{
			Ticks: 3,
			Series: map[string]TimelineSeriesStat{
				GPoolBusyRatio: {Count: 3, Mean: 0.7, Min: 0.5, Max: 0.9, Last: 0.8},
			},
		},
	}
	flat, fam := flatten(rr)
	if v := flat["timeline_pool_busy_ratio_mean"]; v != 0.7 {
		t.Errorf("timeline_pool_busy_ratio_mean = %v, want 0.7", v)
	}
	if f := fam["timeline_pool_busy_ratio_mean"]; f != FamTimeline {
		t.Errorf("family = %q, want %q", f, FamTimeline)
	}
	for _, suffix := range []string{"_min", "_max", "_last", "_count"} {
		if _, ok := flat["timeline_pool_busy_ratio"+suffix]; !ok {
			t.Errorf("flattened report lacks timeline_pool_busy_ratio%s", suffix)
		}
	}
	// Round-trips through JSON like any report field.
	var buf bytes.Buffer
	if err := rr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Timeline == nil || back.Timeline.Series[GPoolBusyRatio].Max != 0.9 {
		t.Errorf("timeline did not survive the JSON round trip: %+v", back.Timeline)
	}
}
