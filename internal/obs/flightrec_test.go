package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderRecordAndSnapshot(t *testing.T) {
	fr := NewFlightRecorder(16, nil)
	fr.Record(FKMark, "start", 1, 2)
	fr.Record(FKWatchdog, "stall", 5, 105)
	recs := fr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("snapshot has %d records, want 2", len(recs))
	}
	if recs[0].Kind != "mark" || recs[0].Name != "start" || recs[0].Value != 1 || recs[0].Aux != 2 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Kind != "watchdog_stall" || recs[1].Name != "stall" || recs[1].Value != 5 || recs[1].Aux != 105 {
		t.Errorf("record 1 = %+v", recs[1])
	}
	if recs[0].T == 0 || recs[1].T < recs[0].T {
		t.Errorf("timestamps not monotone: %d then %d", recs[0].T, recs[1].T)
	}
}

func TestFlightRecorderRingWraps(t *testing.T) {
	fr := NewFlightRecorder(8, nil)
	for i := int64(0); i < 20; i++ {
		fr.Record(FKMark, "m", i, 0)
	}
	recs := fr.Snapshot()
	if len(recs) != 8 {
		t.Fatalf("snapshot after wrap has %d records, want 8", len(recs))
	}
	// Only the most recent 8 survive, oldest first.
	for i, r := range recs {
		if want := int64(12 + i); r.Value != want {
			t.Errorf("record %d value = %d, want %d", i, r.Value, want)
		}
	}
}

func TestFlightRecorderInterning(t *testing.T) {
	fr := NewFlightRecorder(8, nil)
	id1 := fr.nameID("span_learn")
	id2 := fr.nameID("span_learn")
	if id1 != id2 {
		t.Errorf("same name interned twice: %d vs %d", id1, id2)
	}
	if fr.nameOf(id1) != "span_learn" {
		t.Errorf("nameOf(%d) = %q", id1, fr.nameOf(id1))
	}
	if fr.nameOf(9999) != "unknown" {
		t.Error("out-of-range ID did not resolve to unknown")
	}
	if fr.nameID("") != 0 || fr.nameOf(0) != "" {
		t.Error("empty name is not ID 0")
	}
}

func TestFlightRecorderConcurrentRecordAndSnapshot(t *testing.T) {
	fr := NewFlightRecorder(64, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
					fr.Record(FKMark, "c", i, int64(g))
				}
			}
		}(g)
	}
	// Seqlock contract: every snapshot taken mid-write holds only stable,
	// fully-written records.
	for i := 0; i < 200; i++ {
		for _, r := range fr.Snapshot() {
			if r.Kind != "mark" || r.Name != "c" || r.T == 0 {
				t.Fatalf("torn record: %+v", r)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestFlightRecorderDumpNowToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	fr := NewFlightRecorder(32, file)
	fr.Record(FKSpanStart, "learn", 1, 0)
	fr.Record(FKSpanEnd, "learn", 1500, 1)
	if err := fr.DumpNow("test_reason"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	// meta + span_start + span_end + the dump's own mark.
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 4:\n%s", len(lines), b)
	}
	var meta struct {
		Kind    string `json:"kind"`
		Slots   int    `json:"slots"`
		Records int    `json:"records"`
		Dumps   int64  `json:"dumps"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Kind != "flight_meta" || meta.Slots != 32 || meta.Records != 3 || meta.Dumps != 1 {
		t.Errorf("meta = %+v", meta)
	}
	for i, line := range lines[1:] {
		var rec FlightRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record line %d is not JSON: %v", i, err)
		}
	}
	if !strings.Contains(lines[3], `"dump:test_reason"`) {
		t.Errorf("dump mark missing its reason: %s", lines[3])
	}

	// A second dump is appended whole: its meta line, then the grown ring.
	if err := fr.DumpNow("again"); err != nil {
		t.Fatal(err)
	}
	b2, _ := os.ReadFile(path)
	lines2 := strings.Split(strings.TrimSpace(string(b2)), "\n")
	if len(lines2) != 9 || strings.Join(lines2[:4], "\n") != strings.Join(lines, "\n") ||
		!strings.Contains(lines2[4], `"flight_meta"`) || !strings.Contains(lines2[8], `"dump:again"`) {
		t.Errorf("after a second dump the file holds %d lines, want the first dump's 4 and then 5 more:\n%s", len(lines2), b2)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(FKMark, "x", 0, 0)
	if err := fr.DumpNow("r"); err != nil {
		t.Errorf("nil DumpNow: %v", err)
	}
	if fr.Snapshot() != nil {
		t.Error("nil Snapshot is not nil")
	}
	var buf bytes.Buffer
	if err := fr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Nil recorders still emit a parseable meta line, so a dump is never
	// an empty file.
	var meta struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &meta); err != nil || meta.Kind != "flight_meta" {
		t.Errorf("nil WriteJSONL = %q, want one flight_meta line (err %v)", buf.String(), err)
	}
}

func TestRunSpanHooksFeedFlightRecorder(t *testing.T) {
	fr := NewFlightRecorder(32, nil)
	run := NewRun(fr, nil) // the ring alone is a span sink
	s := run.StartSpan("learn")
	s.End()
	var kinds []string
	for _, r := range fr.Snapshot() {
		kinds = append(kinds, r.Kind+":"+r.Name)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"span_start:learn", "span_end:learn"} {
		if !strings.Contains(joined, want) {
			t.Errorf("flight records %v missing %s", kinds, want)
		}
	}
}
