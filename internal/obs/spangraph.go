package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span-graph reconstruction. The span layer emits a flat stream of
// lifecycle notifications; this file turns finished spans back into the
// run's call DAG so the attribution layer (attrib.go) can answer "where
// did the wall clock go". Two sources produce the same SpanRecord shape:
// the in-process GraphSink (live runs, run reports, /critpath) and
// ReadSpanJSONL (offline reconstruction from a -trace file).
//
// The graph is a tree of serial spans with fork/join groups grafted in:
// spans sharing a non-zero Round are the shards of one pooled drain, all
// parented under the span that submitted the round. Within a round, the
// shards drained by one worker form a *chain* — the round's wall time is
// its slowest chain, which is what the critical path follows.

// SpanRecord is the flat, durable form of one finished span — everything
// the graph needs, nothing that pins learner memory (no Fields).
type SpanRecord struct {
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	// Worker is the pool-worker index that drained the span, -1 for spans
	// on the run's owning goroutine.
	Worker int `json:"worker"`
	// Round joins the shard spans of one pooled drain; 0 = no round.
	Round uint64 `json:"round,omitempty"`
	// StartNS is the wall-clock start, Unix nanoseconds.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span's duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
}

// DefaultGraphSpans caps how many records a GraphSink retains. A UW-CSE
// learn emits a few thousand spans; the cap only matters for pathological
// runs, where the sink drops new records and counts the loss rather than
// growing without bound.
const DefaultGraphSpans = 1 << 20

// GraphSink is a SpanSink that accumulates finished spans for graph
// reconstruction. Safe for concurrent use; one sink per Learn keeps
// concurrent runs' graphs disjoint.
type GraphSink struct {
	mu      sync.Mutex
	recs    []SpanRecord
	max     int
	dropped int64
}

// NewGraphSink builds a sink retaining at most max records (<= 0 means
// DefaultGraphSpans).
func NewGraphSink(max int) *GraphSink {
	if max <= 0 {
		max = DefaultGraphSpans
	}
	return &GraphSink{max: max}
}

// SpanStart is a no-op: the graph only needs finished spans.
func (g *GraphSink) SpanStart(*Span) {}

// SpanEnd records the finished span.
func (g *GraphSink) SpanEnd(s *Span, d time.Duration) {
	rec := SpanRecord{
		ID: s.ID, ParentID: s.ParentID, Name: s.Name,
		Worker: s.Worker, Round: s.Round,
		StartNS: s.Start.UnixNano(), DurNS: int64(d),
	}
	g.mu.Lock()
	if len(g.recs) >= g.max {
		g.dropped++
	} else {
		g.recs = append(g.recs, rec)
	}
	g.mu.Unlock()
}

// Records returns a copy of the accumulated span records.
func (g *GraphSink) Records() []SpanRecord {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	out := make([]SpanRecord, len(g.recs))
	copy(out, g.recs)
	g.mu.Unlock()
	return out
}

// Dropped reports how many spans the cap discarded.
func (g *GraphSink) Dropped() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	n := g.dropped
	g.mu.Unlock()
	return n
}

// Graph builds the span graph over the sink's current records. Mid-run
// the graph covers finished spans only: spans whose parent is still open
// surface as roots, which the attribution layer treats as independent
// top-level regions.
func (g *GraphSink) Graph() *SpanGraph {
	if g == nil {
		return BuildGraph(nil)
	}
	sg := BuildGraph(g.Records())
	sg.Dropped = g.Dropped()
	return sg
}

// SpanNode is one span in the reconstructed graph.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode
}

// SpanGraph is the reconstructed call DAG of one (or part of one) run.
type SpanGraph struct {
	// Roots are spans whose parent is unknown — the learn span for a
	// complete run, plus any span whose parent was still open or dropped.
	Roots []*SpanNode
	// Dropped counts records lost to the GraphSink cap (0 for offline
	// reconstruction).
	Dropped int64

	byID map[uint64]*SpanNode
}

// BuildGraph links span records into a graph. Children are ordered by
// start time (ties by ID, so the order is deterministic).
func BuildGraph(recs []SpanRecord) *SpanGraph {
	g := &SpanGraph{byID: make(map[uint64]*SpanNode, len(recs))}
	nodes := make([]SpanNode, len(recs))
	for i, r := range recs {
		nodes[i] = SpanNode{SpanRecord: r}
		g.byID[r.ID] = &nodes[i]
	}
	for i := range nodes {
		n := &nodes[i]
		if p, ok := g.byID[n.ParentID]; ok && n.ParentID != 0 && p != n {
			p.Children = append(p.Children, n)
		} else {
			g.Roots = append(g.Roots, n)
		}
	}
	order := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].StartNS != ns[j].StartNS {
				return ns[i].StartNS < ns[j].StartNS
			}
			return ns[i].ID < ns[j].ID
		})
	}
	for i := range nodes {
		order(nodes[i].Children)
	}
	order(g.Roots)
	return g
}

// Node returns the span with the given ID, or nil.
func (g *SpanGraph) Node(id uint64) *SpanNode { return g.byID[id] }

// Len returns the number of spans in the graph.
func (g *SpanGraph) Len() int { return len(g.byID) }

// CritStep is one ancestor hop of a critical chain's path.
type CritStep struct {
	Name  string `json:"name"`
	ID    uint64 `json:"id"`
	DurNS int64  `json:"dur_ns"`
}

// CritChain describes one pooled round's critical chain: the slowest
// worker's shard sequence, which alone determines the round's wall time.
type CritChain struct {
	// Round is the pool-round ID, Kind the shard spans' name.
	Round uint64 `json:"round"`
	Kind  string `json:"kind"`
	// Path walks root → submitting span, locating the round in the run.
	Path []CritStep `json:"path,omitempty"`
	// WallNS is the round's envelope (last shard end − first shard start);
	// ChainNS the slowest worker chain, drained by Worker.
	WallNS  int64 `json:"wall_ns"`
	ChainNS int64 `json:"chain_ns"`
	Worker  int   `json:"worker"`
	// Shards and Workers are the round's shard count and active workers.
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// StragglerRatio is ChainNS over the mean active worker chain: 1.0 is
	// a perfectly balanced round, N means the slowest worker drained as
	// long as N average workers.
	StragglerRatio float64 `json:"straggler_ratio"`
}

// roundStats folds one round's member spans into chain statistics.
func roundStats(members []*SpanNode) (wall, maxChain, sumChain int64, worker, active int) {
	var lo, hi int64
	chains := map[int]int64{}
	for i, m := range members {
		end := m.StartNS + m.DurNS
		if i == 0 || m.StartNS < lo {
			lo = m.StartNS
		}
		if i == 0 || end > hi {
			hi = end
		}
		chains[m.Worker] += m.DurNS
	}
	wall = hi - lo
	worker = -1
	for w, c := range chains {
		if c <= 0 {
			continue
		}
		active++
		sumChain += c
		if c > maxChain || (c == maxChain && (worker < 0 || w < worker)) {
			maxChain, worker = c, w
		}
	}
	return wall, maxChain, sumChain, worker, active
}

// CriticalChains extracts every pooled round in the graph, ranks rounds by
// their critical (slowest) worker chain, and returns the top k (k <= 0
// means all). This is the "what actually gated wall clock" view: serial
// spans gate trivially, rounds gate through their slowest chain.
func (g *SpanGraph) CriticalChains(k int) []CritChain {
	var out []CritChain
	var walk func(n *SpanNode, path []CritStep)
	collect := func(children []*SpanNode, path []CritStep, walkFn func(n *SpanNode, path []CritStep)) {
		rounds := map[uint64][]*SpanNode{}
		var order []uint64
		for _, c := range children {
			if c.Round != 0 {
				if _, ok := rounds[c.Round]; !ok {
					order = append(order, c.Round)
				}
				rounds[c.Round] = append(rounds[c.Round], c)
				continue
			}
			walkFn(c, path)
		}
		for _, r := range order {
			members := rounds[r]
			wall, maxChain, sumChain, worker, active := roundStats(members)
			cc := CritChain{
				Round: r, Kind: members[0].Name,
				Path:    append([]CritStep(nil), path...),
				WallNS:  wall,
				ChainNS: maxChain,
				Worker:  worker,
				Shards:  len(members),
				Workers: active,
			}
			if active > 0 && sumChain > 0 {
				cc.StragglerRatio = float64(maxChain) * float64(active) / float64(sumChain)
			}
			out = append(out, cc)
		}
	}
	walk = func(n *SpanNode, path []CritStep) {
		path = append(path, CritStep{Name: n.Name, ID: n.ID, DurNS: n.DurNS})
		collect(n.Children, path, walk)
	}
	collect(g.Roots, nil, walk)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ChainNS != out[j].ChainNS {
			return out[i].ChainNS > out[j].ChainNS
		}
		return out[i].Round < out[j].Round
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// ReadSpanJSONL reconstructs span records from a JSONL trace stream.
// Span lines are the ones carrying a "span" key (see JSONLSink.SpanEnd);
// other shapes (the event lines of older traces) are skipped, so the
// reader accepts any -trace file as-is.
func ReadSpanJSONL(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec struct {
			Span    string `json:"span"`
			ID      uint64 `json:"id"`
			Parent  uint64 `json:"parent"`
			Worker  *int   `json:"worker"`
			Round   uint64 `json:"round"`
			StartNS int64  `json:"start_ns"`
			DurNS   int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		if rec.Span == "" {
			continue // not a span line
		}
		worker := -1
		if rec.Worker != nil {
			worker = *rec.Worker
		}
		out = append(out, SpanRecord{
			ID: rec.ID, ParentID: rec.Parent, Name: rec.Span,
			Worker: worker, Round: rec.Round,
			StartNS: rec.StartNS, DurNS: rec.DurNS,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
