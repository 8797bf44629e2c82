package observe

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/castor"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/testfix"
)

// readDump decodes a flight-recorder dump: the flight_meta line first,
// then one record per line.
func readDump(t *testing.T, path string) (meta string, recs []obs.FlightRecord) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var r obs.FlightRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("dump line %q does not parse: %v", line, err)
		}
		if i == 0 {
			meta = r.Kind
			continue
		}
		recs = append(recs, r)
	}
	return meta, recs
}

// has reports whether a record of the kind and name is in recs.
func has(recs []obs.FlightRecord, kind, name string) bool {
	for _, r := range recs {
		if r.Kind == kind && r.Name == name {
			return true
		}
	}
	return false
}

// TestStallHookDumpsFlightRecorder drives the binaries' watchdog stall
// hook on an idle run: the watchdog must trip, and the -flightrecorder
// file must then hold the watchdog_stall record and the dump:watchdog
// mark.
func TestStallHookDumpsFlightRecorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	fr := obs.NewFlightRecorder(64, file)
	run := obs.NewRun(fr, obs.NewRegistry())
	var log strings.Builder
	wd := obs.StartWatchdog(run, 20*time.Millisecond, stallHook(fr, &log))
	for deadline := time.Now().Add(10 * time.Second); wd.Trips() == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	wd.Stop() // waits for the hook to finish its dump
	if wd.Trips() == 0 {
		t.Fatal("watchdog never tripped on an idle run")
	}
	if !strings.Contains(log.String(), "watchdog: no heartbeat progress") {
		t.Errorf("stall log = %q", log.String())
	}
	_, recs := readDump(t, path)
	if !has(recs, "watchdog_stall", "stall") || !has(recs, "mark", "dump:watchdog") {
		t.Errorf("flight dump %+v lacks the watchdog_stall record or the dump:watchdog mark", recs)
	}
}

// TestSessionWritesEveryArtifact starts a session with every flag set,
// runs a small Castor learn under it, finishes, and checks every artifact:
// the report with its env block, the JSONL and Chrome traces, both
// profiles, the closed provenance stream, the summary, and the ring's
// run-end dump.
func TestSessionWritesEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	f := Flags{
		Verbose: true, Trace: at("trace.jsonl"), ChromeTrace: at("chrome.json"),
		Report: at("run.json"), FlightRecorder: at("flight.jsonl"), WatchdogStall: time.Minute,
		CPUProfile: at("cpu.pprof"), MemProfile: at("mem.pprof"),
	}
	prov, err := obs.CreateProvenanceFile(at("prov.jsonl"), obs.ProvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	func() (err error) {
		s, err := Start(f, prov)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			s.Close(&err)
			if err != nil {
				t.Fatal(err)
			}
		}()
		params := ilp.Defaults()
		params.Obs = s.Run
		if _, err := castor.New().Learn(testfix.NewWorld(6).ProblemOriginal(), params); err != nil {
			return err
		}
		return s.Finish(&out, 7, &obs.RunReport{Tool: "castor"})
	}()

	rep, err := obs.LoadRunReport(f.Report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "castor" || rep.Env == nil || rep.Env.GoVersion == "" || rep.Env.Seed != 7 {
		t.Errorf("report tool %q env %+v, want castor with a go version and seed 7", rep.Tool, rep.Env)
	}
	if rep.Metrics.Spans["learn"].Calls != 1 || rep.Metrics.Counters["coverage_tests"] == 0 {
		t.Errorf("report metrics miss the learn: %+v", rep.Metrics.Spans)
	}
	if !strings.Contains(out.String(), "run metrics:") {
		t.Errorf("summary missing from output:\n%s", out.String())
	}
	trace, err := os.ReadFile(f.Trace)
	if err != nil || !strings.Contains(string(trace), `"span":"learn"`) {
		t.Errorf("trace has no learn span line (err %v)", err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if b, err := os.ReadFile(f.ChromeTrace); err != nil || json.Unmarshal(b, &chrome) != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("Chrome trace is not a closed, non-empty trace-event file (err %v)", err)
	}
	for _, p := range []string{f.CPUProfile, f.MemProfile} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s empty or missing (err %v)", filepath.Base(p), err)
		}
	}
	if b, err := os.ReadFile(at("prov.jsonl")); err != nil || !strings.Contains(string(b), `"kind":"summary"`) {
		t.Errorf("provenance stream was not closed with its summary (err %v)", err)
	}
	meta, recs := readDump(t, f.FlightRecorder)
	if meta != "flight_meta" || !has(recs, "span_start", "learn") || !has(recs, "mark", "dump:run_end") {
		t.Errorf("ring dump (meta %q) lacks the learn span or the dump:run_end mark", meta)
	}
}

// TestSessionAppendsEveryDump: a SIGQUIT dump, then enough spans to wrap
// the ring, then the run-end dump leave both dumps in the -flightrecorder
// file, in order: a flight_meta line and the dump:sigquit mark, then a
// second flight_meta line and the dump:run_end mark. The SIGQUIT dump is
// on disk before the run goes on, and the wrapped ring no longer holds it.
func TestSessionAppendsEveryDump(t *testing.T) {
	f := Flags{FlightRecorder: filepath.Join(t.TempDir(), "flight.jsonl")}
	s, err := Start(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(&err)
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if b, _ := os.ReadFile(f.FlightRecorder); bytes.Contains(b, []byte(`"dump:sigquit"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the SIGQUIT dump did not reach the file")
		}
	}
	for k := 0; k < obs.DefaultFlightSlots/2+5; k++ { // 16,394 records
		s.Run.StartSpan("learn").End()
	}
	if err := s.Finish(io.Discard, 1, &obs.RunReport{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(f.FlightRecorder)
	if err != nil {
		t.Fatal(err)
	}
	var seq []string // the meta lines and marks, in file order
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var r obs.FlightRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("dump line %q does not parse: %v", line, err)
		}
		if i == 0 && r.Kind != "flight_meta" {
			t.Fatalf("first line %q is not a flight_meta line", line)
		}
		switch r.Kind {
		case "flight_meta":
			seq = append(seq, r.Kind)
		case "mark":
			seq = append(seq, r.Name)
		}
	}
	if got, want := strings.Join(seq, " "), "flight_meta dump:sigquit flight_meta dump:run_end"; got != want {
		t.Errorf("dump file holds %q, want %q", got, want)
	}
}

// TestPanicDumpsRingAndRepanics: a panic under the session dumps the ring
// with reason panic, closes the artifacts, and is raised again.
func TestPanicDumpsRingAndRepanics(t *testing.T) {
	dir := t.TempDir()
	f := Flags{FlightRecorder: filepath.Join(dir, "flight.jsonl"), ChromeTrace: filepath.Join(dir, "chrome.json")}
	got := func() (p any) {
		defer func() { p = recover() }()
		func() (err error) {
			s, err := Start(f, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(&err)
			s.Run.StartSpan("learn")
			panic("boom")
		}()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the session to raise the panic boom again", got)
	}
	_, recs := readDump(t, f.FlightRecorder)
	if !has(recs, "span_start", "learn") || !has(recs, "mark", "dump:panic") {
		t.Errorf("ring dump %+v lacks the open learn span or the dump:panic mark", recs)
	}
	if b, err := os.ReadFile(f.ChromeTrace); err != nil || !json.Valid(b) {
		t.Errorf("Chrome trace not closed after the panic (err %v)", err)
	}
}

// TestSessionWithoutFlags: without flags there is no registry and no
// summary, but the ring records spans.
func TestSessionWithoutFlags(t *testing.T) {
	s, err := Start(Flags{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(&err)
	if s.Run.Registry() != nil {
		t.Error("a session without -v, -trace or -report built a registry")
	}
	s.Run.StartSpan("learn").End()
	var out bytes.Buffer
	if err := s.Finish(&out, 1, &obs.RunReport{}); err != nil || out.Len() != 0 {
		t.Errorf("Finish = %v with output %q, want no summary", err, out.String())
	}
	recs := s.ring.Snapshot()
	if !has(recs, "span_start", "learn") || !has(recs, "span_end", "learn") {
		t.Errorf("ring records %+v, want the learn span's start and end", recs)
	}
}

// TestStartFailureClosesProvenance: when Start cannot open an artifact it
// closes what it was handed, so the provenance stream still ends with its
// summary.
func TestStartFailureClosesProvenance(t *testing.T) {
	dir := t.TempDir()
	prov, err := obs.CreateProvenanceFile(filepath.Join(dir, "prov.jsonl"), obs.ProvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(Flags{Trace: filepath.Join(dir, "missing", "t.jsonl")}, prov); err == nil {
		t.Fatal("Start opened a trace in a missing directory")
	}
	if b, err := os.ReadFile(filepath.Join(dir, "prov.jsonl")); err != nil || !strings.Contains(string(b), `"kind":"summary"`) {
		t.Errorf("provenance stream not closed after a failed Start (err %v)", err)
	}
}
