package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMetricsEndpointRendersEveryCounter(t *testing.T) {
	reg := NewRegistry()
	reg.counters[CCoverageTests].Store(7)
	run := NewRun(nil, reg)
	run.StartSpan("learn").End()
	run.Sample()

	srv := httptest.NewServer(NewHandler(run, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metricsContentType)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for c := Counter(0); c < numCounters; c++ {
		if !strings.Contains(text, fmt.Sprintf("sirl_%s ", c)) {
			t.Errorf("/metrics missing counter %q", c)
		}
		if !strings.Contains(text, fmt.Sprintf("# HELP sirl_%s ", c)) {
			t.Errorf("/metrics missing HELP for counter %q", c)
		}
		if !strings.Contains(text, fmt.Sprintf("# TYPE sirl_%s counter", c)) {
			t.Errorf("/metrics missing TYPE for counter %q", c)
		}
	}
	if !strings.Contains(text, "sirl_coverage_tests 7") {
		t.Error("/metrics does not carry the counter value")
	}
	// The accumulated wall-time table is a point-in-time total, not a
	// monotone scrape series: it must be a gauge, its call counts a counter.
	for _, want := range []string{
		"# HELP sirl_span_seconds ", "# TYPE sirl_span_seconds gauge",
		"# HELP sirl_span_calls ", "# TYPE sirl_span_calls counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, `sirl_span_calls{span="learn"} 1`) {
		t.Error("/metrics missing the span aggregate family")
	}
	// Latency distributions export as one histogram family with a name
	// label: cumulative buckets, sum and count.
	for _, want := range []string{
		"# TYPE sirl_duration_seconds histogram",
		`sirl_duration_seconds_bucket{name="span_learn",le="+Inf"} 1`,
		`sirl_duration_seconds_count{name="span_learn"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Resource-sampler gauges are TYPE gauge.
	for _, want := range []string{"# TYPE sirl_rss_bytes gauge", "sirl_rss_peak_bytes "} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every family must carry a HELP line (Prometheus lint requirement).
	seenHelp := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			seenHelp[strings.Fields(rest)[0]] = true
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fam := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(fam, suffix); ok && seenHelp[base] {
				fam = base
				break
			}
		}
		if !seenHelp[fam] {
			t.Errorf("/metrics family %q has no # HELP line", fam)
		}
	}
}

// TestProgressEndpoint: /progress serves the run's live span stack — the
// same stack the stall watchdog reports, innermost first, one parent
// chain — plus counter deltas since the previous request.
func TestProgressEndpoint(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)

	root := run.StartSpan("learn", F("learner", "castor"))
	child := run.StartSpan("beam_round")
	shard := run.StartWorkerSpan(child, "shard_candidate_scoring", 1, 0) // never on the stack
	run.Inc(CCoverageTests)

	srv := httptest.NewServer(NewHandler(run, nil, nil))
	defer srv.Close()
	get := func() Snapshot {
		resp, err := http.Get(srv.URL + "/progress")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q, want application/json", ct)
		}
		var snap Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("/progress is not valid JSON: %v", err)
		}
		return snap
	}

	snap := get()
	if len(snap.ActiveSpans) != 2 {
		t.Fatalf("active spans = %+v, want 2", snap.ActiveSpans)
	}
	if snap.ActiveSpans[0].Name != "beam_round" || snap.ActiveSpans[1].Name != "learn" {
		t.Errorf("active spans = %+v, want beam_round then learn", snap.ActiveSpans)
	}
	if snap.ActiveSpans[0].ID != child.ID || snap.ActiveSpans[0].Parent != root.ID || snap.ActiveSpans[1].Parent != 0 {
		t.Errorf("active spans = %+v, want one parent chain beam_round → learn", snap.ActiveSpans)
	}
	if snap.Counters["coverage_tests"] != 1 || snap.CounterDeltas["coverage_tests"] != 1 {
		t.Errorf("counters = %v deltas = %v", snap.Counters, snap.CounterDeltas)
	}

	shard.End()
	child.End()
	root.End()
	run.Inc(CCoverageTests)
	snap = get()
	if len(snap.ActiveSpans) != 0 {
		t.Errorf("active spans after End = %d, want 0", len(snap.ActiveSpans))
	}
	// The delta baseline advanced with the previous snapshot.
	if snap.CounterDeltas["coverage_tests"] != 1 {
		t.Errorf("second delta = %d, want 1", snap.CounterDeltas["coverage_tests"])
	}
}

func TestProgressElapsedSeconds(t *testing.T) {
	run := NewRun(nil, NewRegistry())
	s := run.StartSpan("learn")
	time.Sleep(2 * time.Millisecond)
	snap := (&progress{run: run}).snapshot()
	s.End()
	if len(snap.ActiveSpans) != 1 || snap.ActiveSpans[0].ElapsedSeconds <= 0 {
		t.Errorf("snapshot = %+v, want one active span with positive elapsed", snap.ActiveSpans)
	}
}

func TestHandlerIndexAndPprof(t *testing.T) {
	run := NewRun(nil, NewRegistry()).WithFlightRecorder(NewFlightRecorder(8))
	srv := httptest.NewServer(NewHandler(run, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/", "/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

func TestHandlerNilBackends(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/progress", "/debug/flightrecorder"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200 (body %q)", path, resp.StatusCode, body)
		}
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	fr := NewFlightRecorder(64)
	run := (*Run)(nil).WithFlightRecorder(fr)
	run.StartSpan("learn").End()

	srv := httptest.NewServer(NewHandler(run, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 3 {
		t.Fatalf("dump has %d lines, want meta + span_start + span_end:\n%s", len(lines), body)
	}
	kinds := make([]string, len(lines))
	for i, line := range lines {
		var rec struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v (%q)", i, err, line)
		}
		kinds[i] = rec.Kind
	}
	if kinds[0] != "flight_meta" {
		t.Errorf("first line kind = %q, want flight_meta", kinds[0])
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "span_start") || !strings.Contains(joined, "span_end") {
		t.Errorf("dump kinds = %v, want span_start and span_end", kinds)
	}
}

func TestStartServer(t *testing.T) {
	srv, err := StartServer("localhost:0", NewRun(nil, NewRegistry()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}

func TestTimelineEndpoint(t *testing.T) {
	reg := NewRegistry()
	run := NewRun(nil, reg)
	tl := StartTimeline(run, time.Hour)
	run.Add(CCoverageTests, 4)
	reg.SetGauge(GPoolBusyRatio, 0.8)
	tl.tick()
	tl.Stop()

	srv := httptest.NewServer(NewHandler(run, tl, nil))
	defer srv.Close()

	get := func(path string) TimelineDump {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q, want application/json", ct)
		}
		var d TimelineDump
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return d
	}

	d := get("/timeline")
	if len(d.Series["coverage_tests"]) == 0 {
		t.Fatalf("/timeline has no coverage_tests series; got %d series", len(d.Series))
	}
	if len(d.Series[GPoolBusyRatio]) < 2 {
		t.Fatalf("/timeline pool_busy_ratio has %d samples, want >= 2", len(d.Series[GPoolBusyRatio]))
	}
	if d.Meta.Ticks == 0 {
		t.Error("/timeline meta.ticks is zero")
	}

	d = get("/timeline?series=pool_busy_ratio")
	if len(d.Series) != 1 || len(d.Series[GPoolBusyRatio]) == 0 {
		t.Errorf("?series filter returned %v", len(d.Series))
	}

	d = get("/timeline?since=" + fmt.Sprint(time.Now().Add(time.Hour).UnixMilli()))
	if len(d.Series) != 0 {
		t.Errorf("?since in the future returned %d series", len(d.Series))
	}

	resp, err := http.Get(srv.URL + "/timeline?since=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since: status %d, want 400", resp.StatusCode)
	}
}

func TestTimelineEndpointNilTimeline(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (stable surface with nil timeline)", resp.StatusCode)
	}
	var d TimelineDump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Series) != 0 {
		t.Errorf("nil timeline served %d series", len(d.Series))
	}
}

func TestCritPathEndpoint(t *testing.T) {
	graph := NewGraphSink(0)
	run := NewRun(graph, nil)
	root := run.StartSpan("learn")
	round := NextPoolRound()
	run.StartWorkerSpan(root, "shard_candidate_scoring", round, 0).End()
	run.StartWorkerSpan(root, "shard_candidate_scoring", round, 1).End()
	root.End()

	srv := httptest.NewServer(NewHandler(run, nil, graph))
	defer srv.Close()

	get := func(path string) CritPathResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q, want application/json", ct)
		}
		var cp CritPathResponse
		if err := json.NewDecoder(resp.Body).Decode(&cp); err != nil {
			t.Fatalf("/critpath is not valid JSON: %v", err)
		}
		return cp
	}

	cp := get("/critpath")
	if cp.Spans != 3 {
		t.Errorf("spans = %d, want 3", cp.Spans)
	}
	if cp.Attrib == nil || cp.Attrib.Row("shard_candidate_scoring") == nil {
		t.Fatalf("attrib = %+v, want a shard_candidate_scoring row", cp.Attrib)
	}
	if len(cp.Chains) != 1 || cp.Chains[0].Round != round || cp.Chains[0].Shards != 2 {
		t.Errorf("chains = %+v, want one 2-shard round %d", cp.Chains, round)
	}
	if len(cp.Chains[0].Path) != 1 || cp.Chains[0].Path[0].Name != "learn" {
		t.Errorf("chain path = %+v, want [learn]", cp.Chains[0].Path)
	}

	if cp = get("/critpath?k=0"); len(cp.Chains) != 1 {
		t.Errorf("k=0 (all) chains = %d, want 1", len(cp.Chains))
	}

	resp, err := http.Get(srv.URL + "/critpath?k=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k=-1: status %d, want 400", resp.StatusCode)
	}
}

func TestCritPathEndpointNilGraph(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/critpath")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (stable surface with nil graph)", resp.StatusCode)
	}
	var cp CritPathResponse
	if err := json.NewDecoder(resp.Body).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	if cp.Spans != 0 || len(cp.Chains) != 0 {
		t.Errorf("nil graph served %+v", cp)
	}
}
