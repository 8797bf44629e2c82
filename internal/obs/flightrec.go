package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the crash-evidence layer: a fixed-size ring of
// the most recent observability events (span begins/ends, watchdog
// stalls, dump marks), recorded continuously at near-zero cost and dumped
// as JSONL when something goes wrong — a SIGQUIT, a watchdog stall, a
// panic in the observed run — and at the end of a run. A killed 10-minute
// HIV learn then leaves its last seconds of behaviour behind instead of
// nothing. The ring is a SpanSink: a run records span begins and ends
// into it like into any exporter; stall hooks Record watchdog stalls, and
// DumpNow marks its own reason.
//
// Every slot field is an atomic and each slot carries a sequence number
// (odd while a write is in flight), so recording takes no locks and a
// dump taken mid-write simply skips the unstable slot. Names are interned
// to small IDs through a read-mostly table; after the vocabulary warms up
// (span kinds) the record path performs no allocation.

// FlightKind classifies one flight-recorder record.
type FlightKind uint32

const (
	// FKSpanStart marks a span opening; Value is the span ID, Aux the
	// parent span ID.
	FKSpanStart FlightKind = iota + 1
	// FKSpanEnd marks a span closing; Value is the duration in ns, Aux the
	// span ID.
	FKSpanEnd
	// FKWatchdog is a watchdog stall detection; Value is the stalled
	// interval in ns, Aux the trip count.
	FKWatchdog
	// FKMark is a free-form marker (dump reasons, run boundaries).
	FKMark
)

// flightKindNames are the JSONL kind strings, indexed by FlightKind.
var flightKindNames = [...]string{"", "span_start", "span_end", "watchdog_stall", "mark"}

// String returns the record-schema name of the kind.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return "unknown"
}

// flightSlot is one ring entry. seq is even when the slot is stable; a
// writer makes it odd, stores the fields, then makes it even again, so a
// concurrent dump detects and skips in-flight slots.
type flightSlot struct {
	seq  atomic.Uint64
	t    atomic.Int64  // unix ns
	kind atomic.Uint32 // FlightKind
	name atomic.Uint32 // interned name ID
	val  atomic.Int64
	aux  atomic.Int64
}

// FlightRecorder is the ring. A nil *FlightRecorder is the nop default:
// Record and DumpNow on nil return immediately.
type FlightRecorder struct {
	slots  []flightSlot
	cursor atomic.Uint64

	names  sync.Map // string → uint32, read-mostly
	nameMu sync.Mutex
	byID   []string // ID → string; index 0 reserved for ""

	dumpMu sync.Mutex
	out    fileWriter // where dumps go, guarded by dumpMu
	stderr bool       // dumps go to stderr, each behind a header line
	dumps  atomic.Int64
}

// DefaultFlightSlots is the ring size used when NewFlightRecorder is
// given a non-positive size: at typical span/sample rates this holds the
// last tens of seconds of a heavy learn in ~1.5MB.
const DefaultFlightSlots = 16384

// NewFlightRecorder builds a ring with n slots (DefaultFlightSlots when
// n <= 0) whose dumps DumpNow appends to dump, or writes to stderr when
// dump is nil. The caller owns dump and closes it after the last dump.
func NewFlightRecorder(n int, dump io.Writer) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightSlots
	}
	f := &FlightRecorder{slots: make([]flightSlot, n), byID: []string{""}}
	if dump == nil {
		dump, f.stderr = os.Stderr, true
	}
	f.out = newFileWriter(dump)
	return f
}

// nameID interns a record name. The sync.Map fast path is lock-free once
// the vocabulary (span kinds, marks) has been seen once.
func (f *FlightRecorder) nameID(name string) uint32 {
	if name == "" {
		return 0
	}
	if id, ok := f.names.Load(name); ok {
		return id.(uint32)
	}
	f.nameMu.Lock()
	defer f.nameMu.Unlock()
	if id, ok := f.names.Load(name); ok {
		return id.(uint32)
	}
	id := uint32(len(f.byID))
	f.byID = append(f.byID, name)
	f.names.Store(name, id)
	return id
}

// nameOf resolves an interned ID for dumping.
func (f *FlightRecorder) nameOf(id uint32) string {
	f.nameMu.Lock()
	defer f.nameMu.Unlock()
	if int(id) < len(f.byID) {
		return f.byID[id]
	}
	return "unknown"
}

// Record appends one record, overwriting the oldest. Safe for concurrent
// use from any goroutine; nil-safe.
func (f *FlightRecorder) Record(kind FlightKind, name string, val, aux int64) {
	if f == nil {
		return
	}
	f.record(time.Now().UnixNano(), kind, f.nameID(name), val, aux)
}

// record is Record with the clock read and interning already done
// (SpanStart reuses the span's own timestamp).
func (f *FlightRecorder) record(tns int64, kind FlightKind, nameID uint32, val, aux int64) {
	idx := f.cursor.Add(1) - 1
	s := &f.slots[idx%uint64(len(f.slots))]
	s.seq.Add(1) // odd: write in flight
	s.t.Store(tns)
	s.kind.Store(uint32(kind))
	s.name.Store(nameID)
	s.val.Store(val)
	s.aux.Store(aux)
	s.seq.Add(1) // even: stable
}

// SpanStart implements SpanSink: a span_start record at the span's own
// start time.
func (f *FlightRecorder) SpanStart(s *Span) {
	f.record(s.Start.UnixNano(), FKSpanStart, f.nameID(s.Name), int64(s.ID), int64(s.ParentID))
}

// SpanEnd implements SpanSink: a span_end record.
func (f *FlightRecorder) SpanEnd(s *Span, d time.Duration) {
	f.Record(FKSpanEnd, s.Name, int64(d), int64(s.ID))
}

// FlightRecord is the decoded JSONL form of one record.
type FlightRecord struct {
	// T is the record's wall-clock time in unix nanoseconds.
	T int64 `json:"t_ns"`
	// Kind is the record type (span_start, span_end, watchdog_stall,
	// mark).
	Kind string `json:"kind"`
	// Name is the span kind or mark the record is about.
	Name string `json:"name,omitempty"`
	// Value is the kind-specific payload: span ID, duration ns or stalled
	// ns.
	Value int64 `json:"value,omitempty"`
	// Aux is the kind-specific secondary payload: parent span ID, span ID
	// or trip count.
	Aux int64 `json:"aux,omitempty"`
}

// Snapshot returns the stable records currently in the ring, oldest
// first. Slots being written during the scan are skipped.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	n := uint64(len(f.slots))
	cur := f.cursor.Load()
	start := uint64(0)
	if cur > n {
		start = cur - n
	}
	out := make([]FlightRecord, 0, cur-start)
	for i := start; i < cur; i++ {
		s := &f.slots[i%n]
		seq1 := s.seq.Load()
		if seq1%2 != 0 {
			continue // write in flight
		}
		r := FlightRecord{
			T:     s.t.Load(),
			Kind:  FlightKind(s.kind.Load()).String(),
			Name:  f.nameOf(s.name.Load()),
			Value: s.val.Load(),
			Aux:   s.aux.Load(),
		}
		if s.seq.Load() != seq1 {
			continue // overwritten mid-read
		}
		if r.Kind == "" || r.Kind == "unknown" {
			continue // never written (cursor raced ahead of the writer)
		}
		out = append(out, r)
	}
	return out
}

// WriteJSONL writes the current ring contents as JSONL: one meta line
// (ring geometry, dump time), then one line per record, oldest first.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	out := newFileWriter(w)
	f.writeJSONL(&out)
	return out.flush()
}

// writeJSONL is WriteJSONL into a buffered writer, which keeps the first
// error and is not flushed.
func (f *FlightRecorder) writeJSONL(out *fileWriter) {
	recs := f.Snapshot()
	meta := struct {
		Kind    string `json:"kind"`
		When    int64  `json:"t_ns"`
		Slots   int    `json:"slots"`
		Records int    `json:"records"`
		Dumps   int64  `json:"dumps"`
	}{Kind: "flight_meta", When: time.Now().UnixNano(), Records: len(recs)}
	if f != nil {
		meta.Slots = len(f.slots)
		meta.Dumps = f.dumps.Load()
	}
	enc := json.NewEncoder(out.w)
	out.latch(enc.Encode(meta))
	for i := range recs {
		out.latch(enc.Encode(&recs[i]))
	}
}

// DumpNow appends the ring to the recorder's dump writer (stderr, behind a
// header line, when it has none), recording the reason as a mark first so
// the dump explains itself. Dumps serialize, and each is flushed before
// DumpNow returns, so a file holds every dump in order, each a flight_meta
// line and its records: a run-end dump does not erase an earlier SIGQUIT
// or watchdog dump, whose records the ring may have overwritten since.
// The first write error is kept and returned by every later dump.
// Nil-safe.
func (f *FlightRecorder) DumpNow(reason string) error {
	if f == nil {
		return nil
	}
	f.Record(FKMark, "dump:"+reason, 0, 0)
	f.dumps.Add(1)
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	if f.stderr {
		f.out.write([]byte("flight recorder dump (" + reason + "):\n"))
	}
	f.writeJSONL(&f.out)
	return f.out.flush()
}
