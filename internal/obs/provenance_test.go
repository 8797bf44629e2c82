package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// decodeProv parses a provenance artifact into generic records.
func decodeProv(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var recs []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		recs = append(recs, m)
	}
	return recs
}

func TestProvenanceRecordsGraph(t *testing.T) {
	var buf bytes.Buffer
	p := NewProvenance(&buf, ProvOptions{})
	p.Meta(map[string]any{"tool": "castor", "dataset": "uwcse", "seed": 1})

	root := p.Node(ProvNode{
		Step: StepSeedBottom, Seed: "advisedby(p1,s1)",
		Clause: "advisedby(A,B) :- prof(A), student(B)", Literals: 2,
		Pos: -1, Neg: -1, Score: -1, Disposition: DispKept,
		INDs: []string{"prof[0] <= person[0]"},
	})
	if root != 1 {
		t.Fatalf("first node id = %d, want 1", root)
	}
	kid := p.Node(ProvNode{
		Parents: []uint64{root}, Step: StepARMG, Seed: "advisedby(p2,s2)",
		Clause: "advisedby(A,B) :- prof(A)", Literals: 1,
		Pos: 5, Neg: 0, Score: 5, Disposition: DispKept,
	})
	dropped := p.Node(ProvNode{
		Parents: []uint64{root, 0}, Step: StepARMG,
		Clause: "advisedby(A,B)", Pos: 5, Neg: 9, Score: -4,
		Disposition: DispPrunedScore,
	})
	if kid == 0 || dropped == 0 {
		t.Fatalf("live recorder returned id 0 (kid=%d dropped=%d)", kid, dropped)
	}
	p.INDFired("prof[0] <= person[0]", 3)
	p.Selected("advisedby(A,B) :- prof(A)", 5, 0)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs := decodeProv(t, buf.Bytes())
	if len(recs) != 6 { // meta + 3 nodes + select + summary
		t.Fatalf("got %d records, want 6: %v", len(recs), recs)
	}
	if recs[0]["kind"] != "meta" || recs[0]["dataset"] != "uwcse" {
		t.Errorf("meta record wrong: %v", recs[0])
	}
	if recs[1]["kind"] != "node" || recs[1]["step"] != StepSeedBottom {
		t.Errorf("root node wrong: %v", recs[1])
	}
	if got := recs[2]["parents"].([]any); len(got) != 1 || got[0].(float64) != 1 {
		t.Errorf("kid parents wrong: %v", recs[2])
	}
	// The 0 placeholder parent must be elided from the pruned node.
	if got := recs[3]["parents"].([]any); len(got) != 1 {
		t.Errorf("dropped-parent elision failed: %v", recs[3])
	}
	sel := recs[4]
	if sel["kind"] != "select" || sel["node"].(float64) != float64(kid) {
		t.Errorf("select record did not resolve producing node: %v", sel)
	}
	sum := recs[5]
	if sum["kind"] != "summary" || sum["nodes"].(float64) != 3 || sum["selects"].(float64) != 1 {
		t.Errorf("summary wrong: %v", sum)
	}
	firings := sum["ind_firings"].(map[string]any)
	if firings["prof[0] <= person[0]"].(float64) != 3 {
		t.Errorf("ind firings wrong: %v", sum)
	}
}

func TestProvenanceSamplingAndCap(t *testing.T) {
	var buf bytes.Buffer
	p := NewProvenance(&buf, ProvOptions{MaxNodes: 4})
	// 6 pruned candidates under a cap of 4: the first 4 are written, the
	// rest dropped.
	var ids []uint64
	for i := 0; i < 6; i++ {
		ids = append(ids, p.Node(ProvNode{Step: StepARMG, Clause: "c", Pos: 0, Neg: 1, Score: -1, Disposition: DispPrunedScore}))
	}
	// Kept nodes ignore the cap.
	k1 := p.Node(ProvNode{Step: StepARMG, Clause: "k1", Pos: 1, Neg: 0, Score: 1, Disposition: DispKept})
	// Past the cap, pruned nodes of every kind are dropped...
	capped := p.Node(ProvNode{Step: StepARMG, Clause: "c2", Disposition: DispPrunedBudget})
	capped2 := p.Node(ProvNode{Step: StepARMG, Clause: "c3", Disposition: DispPrunedDuplicate})
	// ...but kept nodes still record, so lineage stays complete.
	k2 := p.Node(ProvNode{Step: StepMinimize, Parents: []uint64{k1}, Clause: "k2", Disposition: DispKept})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	written := 0
	for _, id := range ids {
		if id != 0 {
			written++
		}
	}
	if written != 4 || ids[3] == 0 || ids[4] != 0 {
		t.Errorf("cap 4 over 6 pruned nodes wrote %d (ids %v), want the first 4", written, ids)
	}
	if capped != 0 || capped2 != 0 {
		t.Errorf("cap did not drop pruned nodes: %d %d", capped, capped2)
	}
	if k1 == 0 || k2 == 0 {
		t.Errorf("kept nodes must never be dropped: k1=%d k2=%d", k1, k2)
	}
	recs := decodeProv(t, buf.Bytes())
	sum := recs[len(recs)-1]
	if sum["kind"] != "summary" {
		t.Fatalf("missing summary: %v", recs)
	}
	if sum["nodes"].(float64) != 6 || sum["dropped"].(float64) != 4 {
		t.Errorf("summary totals wrong (nodes=%v dropped=%v), want 6/4", sum["nodes"], sum["dropped"])
	}
}

func TestProvenanceNilSafe(t *testing.T) {
	var p *Prov
	if p.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	p.Meta(map[string]any{"tool": "x"})
	if id := p.Node(ProvNode{Step: StepARMG}); id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	p.INDFired("a <= b", 1)
	p.Selected("c", 1, 0)
	if err := p.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}

	var r *Run
	if r.Prov() != nil {
		t.Fatal("nil run returned a recorder")
	}
	if got := r.WithProvenance(nil); got != nil {
		t.Fatal("nil run + nil recorder must stay nil")
	}
	live := NewProvenance(&bytes.Buffer{}, ProvOptions{})
	pr := r.WithProvenance(live)
	if pr == nil || pr.Prov() != live {
		t.Fatal("nil run + live recorder must build a provenance-only run")
	}
	// WithProvenance must preserve the run's sink and registry.
	reg := NewRegistry()
	full := NewRun(nopSpanSink{}, reg).WithProvenance(live)
	if full.Prov() != live || full.Registry() != reg || full.spans == nil {
		t.Fatal("WithProvenance dropped the registry or span sink")
	}
}

type nopSpanSink struct{}

func (nopSpanSink) SpanStart(*Span)              {}
func (nopSpanSink) SpanEnd(*Span, time.Duration) {}

func TestCreateProvenanceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	p, err := CreateProvenanceFile(path, ProvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Node(ProvNode{Step: StepSeedBottom, Clause: "h :- b", Pos: -1, Neg: -1, Score: -1, Disposition: DispKept})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeProv(t, data)
	if len(recs) != 2 || recs[0]["kind"] != "node" || recs[1]["kind"] != "summary" {
		t.Fatalf("file artifact wrong: %v", recs)
	}
}

// errWriter fails after n bytes, to exercise the sticky-error path.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, os.ErrClosed
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, os.ErrClosed
	}
	w.n -= len(p)
	return len(p), nil
}

func TestProvenanceStickyWriteError(t *testing.T) {
	p := NewProvenance(&errWriter{n: 8}, ProvOptions{})
	for i := 0; i < 2000; i++ {
		p.Node(ProvNode{Step: StepARMG, Clause: "h :- b", Disposition: DispKept})
	}
	if err := p.Close(); err == nil {
		t.Fatal("write error was swallowed")
	}
}
