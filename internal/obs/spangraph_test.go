package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// ms builds deterministic SpanRecords without touching real clocks.
func msRec(id, parent uint64, name string, worker int, round uint64, startMS, durMS int64) SpanRecord {
	return SpanRecord{
		ID: id, ParentID: parent, Name: name, Worker: worker, Round: round,
		StartNS: startMS * int64(time.Millisecond),
		DurNS:   durMS * int64(time.Millisecond),
	}
}

func TestBuildGraphStructure(t *testing.T) {
	recs := []SpanRecord{
		msRec(1, 0, "learn", -1, 0, 0, 100),
		msRec(3, 1, "reduction", -1, 0, 50, 20), // out of start order on purpose
		msRec(2, 1, "saturation", -1, 0, 10, 20),
		msRec(9, 7, "orphan", -1, 0, 5, 1), // parent 7 never finished
	}
	g := BuildGraph(recs)
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if len(g.Roots) != 2 {
		t.Fatalf("got %d roots, want 2 (learn + orphan)", len(g.Roots))
	}
	// Roots and children are start-ordered.
	if g.Roots[0].Name != "learn" || g.Roots[1].Name != "orphan" {
		t.Errorf("root order = %q, %q", g.Roots[0].Name, g.Roots[1].Name)
	}
	learn := g.Node(1)
	if learn == nil || len(learn.Children) != 2 {
		t.Fatalf("learn children = %v", learn)
	}
	if learn.Children[0].ID != 2 || learn.Children[1].ID != 3 {
		t.Errorf("children order = %d, %d; want 2, 3", learn.Children[0].ID, learn.Children[1].ID)
	}
	if g.Node(42) != nil {
		t.Errorf("Node(42) = %v, want nil", g.Node(42))
	}
}

func TestGraphSinkCapCountsDrops(t *testing.T) {
	g := NewGraphSink(2)
	for i := 0; i < 5; i++ {
		g.SpanEnd(&Span{ID: uint64(i + 1), Name: "s", Worker: -1, Start: time.Unix(0, 0)}, time.Millisecond)
	}
	if got := len(g.Records()); got != 2 {
		t.Errorf("retained %d records, want 2", got)
	}
	if got := g.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	if sg := g.Graph(); sg.Dropped != 3 || sg.Len() != 2 {
		t.Errorf("Graph: dropped %d len %d, want 3, 2", sg.Dropped, sg.Len())
	}
}

func TestGraphSinkNilSafe(t *testing.T) {
	var g *GraphSink
	if g.Records() != nil || g.Dropped() != 0 {
		t.Error("nil sink must report empty state")
	}
	if sg := g.Graph(); sg == nil || sg.Len() != 0 {
		t.Errorf("nil sink Graph = %v", sg)
	}
}

// TestAttributeTelescopes pins the core invariant: selves telescope, so the
// per-kind percentages sum to exactly 100% of the root's wall time, with a
// pooled round contributing its envelope (not the sum of its parallel
// shards) to the parent.
func TestAttributeTelescopes(t *testing.T) {
	recs := []SpanRecord{
		msRec(1, 0, "learn", -1, 0, 0, 100),
		msRec(2, 1, "saturation", -1, 0, 5, 20),
		// One pooled round: two workers, envelope 15ms (both start at 30).
		msRec(3, 1, "shard_coverage_testing", 0, 7, 30, 10),
		msRec(4, 1, "shard_coverage_testing", 1, 7, 30, 15),
		msRec(5, 1, "reduction", -1, 0, 60, 25),
	}
	a := Attribute(BuildGraph(recs))
	if a.WallNS != 100*int64(time.Millisecond) {
		t.Fatalf("WallNS = %d, want 100ms", a.WallNS)
	}
	wantSelf := map[string]int64{
		"learn":                  40, // 100 − 20 − 15 (envelope) − 25
		"saturation":             20,
		"shard_coverage_testing": 15,
		"reduction":              25,
	}
	var sumPct float64
	for kind, ms := range wantSelf {
		row := a.Row(kind)
		if row == nil {
			t.Fatalf("no row for %q", kind)
		}
		if row.SelfNS != ms*int64(time.Millisecond) {
			t.Errorf("%s self = %v, want %dms", kind, time.Duration(row.SelfNS), ms)
		}
	}
	for _, row := range a.Rows {
		sumPct += row.Pct
	}
	if math.Abs(sumPct-100) > 1e-9 {
		t.Errorf("Σpct = %v, want 100", sumPct)
	}
	// cum is overlap-blind: both shards count in full.
	if row := a.Row("shard_coverage_testing"); row.CumNS != 25*int64(time.Millisecond) || row.Count != 2 {
		t.Errorf("shard cum/count = %v/%d, want 25ms/2", time.Duration(row.CumNS), row.Count)
	}
	// Serial kinds: crit == self. Rows are self-descending.
	if row := a.Row("learn"); row.CritNS != row.SelfNS {
		t.Errorf("learn crit = %d, self = %d; want equal", row.CritNS, row.SelfNS)
	}
	if a.Rows[0].Kind != "learn" {
		t.Errorf("rows[0] = %q, want learn (largest self)", a.Rows[0].Kind)
	}
}

// TestAttributeStragglerWait: when shard starts stagger, the round's
// envelope exceeds its slowest chain — self counts the envelope (wall the
// parent actually waited), crit only the chain, and the difference is
// straggler wait.
func TestAttributeStragglerWait(t *testing.T) {
	recs := []SpanRecord{
		msRec(1, 0, "learn", -1, 0, 0, 40),
		msRec(2, 1, "shard_candidate_scoring", 0, 3, 0, 10),
		msRec(3, 1, "shard_candidate_scoring", 1, 3, 5, 10), // envelope 15, max chain 10
	}
	a := Attribute(BuildGraph(recs))
	row := a.Row("shard_candidate_scoring")
	if row.SelfNS != 15*int64(time.Millisecond) {
		t.Errorf("self = %v, want 15ms (envelope)", time.Duration(row.SelfNS))
	}
	if row.CritNS != 10*int64(time.Millisecond) {
		t.Errorf("crit = %v, want 10ms (slowest chain)", time.Duration(row.CritNS))
	}
}

func TestCriticalChains(t *testing.T) {
	recs := []SpanRecord{
		msRec(1, 0, "learn", -1, 0, 0, 200),
		msRec(2, 1, "beam_round", -1, 0, 10, 90),
		// Round 11 under beam_round: worker 1 drains two shards (chain 30),
		// worker 0 one shard (chain 10).
		msRec(3, 2, "shard_candidate_scoring", 0, 11, 20, 10),
		msRec(4, 2, "shard_candidate_scoring", 1, 11, 20, 15),
		msRec(5, 2, "shard_candidate_scoring", 1, 11, 35, 15),
		// Round 12 directly under learn: balanced, chain 20.
		msRec(6, 1, "shard_coverage_testing", 0, 12, 120, 20),
		msRec(7, 1, "shard_coverage_testing", 1, 12, 120, 20),
	}
	g := BuildGraph(recs)
	chains := g.CriticalChains(0)
	if len(chains) != 2 {
		t.Fatalf("got %d chains, want 2", len(chains))
	}
	top := chains[0]
	if top.Round != 11 || top.Kind != "shard_candidate_scoring" {
		t.Fatalf("top chain = round %d kind %q", top.Round, top.Kind)
	}
	if top.ChainNS != 30*int64(time.Millisecond) || top.Worker != 1 {
		t.Errorf("top chain = %v on worker %d, want 30ms on 1", time.Duration(top.ChainNS), top.Worker)
	}
	if top.WallNS != 30*int64(time.Millisecond) {
		t.Errorf("top wall = %v, want 30ms (20..50)", time.Duration(top.WallNS))
	}
	if top.Shards != 3 || top.Workers != 2 {
		t.Errorf("shards/workers = %d/%d, want 3/2", top.Shards, top.Workers)
	}
	// chain 30, mean (30+10)/2 = 20 → ratio 1.5
	if math.Abs(top.StragglerRatio-1.5) > 1e-9 {
		t.Errorf("straggler ratio = %v, want 1.5", top.StragglerRatio)
	}
	// Path locates the round: learn → beam_round.
	if len(top.Path) != 2 || top.Path[0].Name != "learn" || top.Path[1].Name != "beam_round" {
		t.Errorf("path = %+v, want learn/beam_round", top.Path)
	}
	// Balanced round: ratio 1, path just learn.
	if r := chains[1]; r.Round != 12 || math.Abs(r.StragglerRatio-1.0) > 1e-9 || len(r.Path) != 1 {
		t.Errorf("second chain = %+v", r)
	}
	if got := g.CriticalChains(1); len(got) != 1 || got[0].Round != 11 {
		t.Errorf("top-1 = %+v", got)
	}
}

// TestReadSpanJSONLRoundTrip: the -trace file alone must be enough to
// rebuild the same graph the in-process GraphSink saw — span lines parse
// back to identical records, lines without a span key are skipped.
func TestReadSpanJSONLRoundTrip(t *testing.T) {
	var buf strings.Builder
	buf.WriteString(`{"t":"2026-01-01T00:00:00Z","event":"covering.accepted","pos":14}` + "\n")
	jsonl := NewJSONLSink(&buf)
	graph := NewGraphSink(0)
	r := NewRun(MultiSpanSink(jsonl, graph), nil)

	root := r.StartSpan("learn", F("learner", "castor"))
	round := NextPoolRound()
	w0 := r.StartWorkerSpan(root, "shard_coverage_testing", round, 0, F("tasks", 3))
	w1 := r.StartWorkerSpan(root, "shard_coverage_testing", round, 1)
	w0.End()
	w1.End()
	root.End()
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadSpanJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.Records()
	if len(got) != len(want) {
		t.Fatalf("parsed %d spans, want %d\n%s", len(got), len(want), buf.String())
	}
	for i := range want {
		// The JSONL line carries wall-clock nanos at full fidelity, so the
		// records must match exactly.
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// And the reconstructed graph has the same shape.
	g := BuildGraph(got)
	if len(g.Roots) != 1 || g.Roots[0].Name != "learn" || len(g.Roots[0].Children) != 2 {
		t.Errorf("offline graph shape wrong: %+v", g.Roots)
	}
	for _, c := range g.Roots[0].Children {
		if c.Round != round || c.Worker < 0 {
			t.Errorf("child %d: round %d worker %d", c.ID, c.Round, c.Worker)
		}
	}
}

func TestReadSpanJSONLBadLine(t *testing.T) {
	if _, err := ReadSpanJSONL(strings.NewReader("{\"span\":\"x\"}\nnot json\n")); err == nil {
		t.Error("want error on malformed line")
	}
}
