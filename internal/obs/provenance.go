package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Provenance is the "why" layer on top of the run's "what/when" layer:
// every candidate clause a learner considers becomes a node of the search
// graph — who generated it (the step), from which clause(s) (the parents),
// toward which seed example, how it scored, and what happened to it (the
// disposition) — streamed as JSONL so a multi-hour run never holds the
// graph in memory. The castor `explain` subcommand interrogates the
// artifact: lineage of a learned clause from its seed bottom clause,
// covered-example witnesses, and which inclusion dependencies fired.
//
// Recording must never change what is learned: the recorder only observes,
// and the regression tests pin learned definitions byte-identical with
// provenance on and off. Overhead is bounded by MaxNodes, a cap on the
// total node count: once it is exhausted, pruned candidates are dropped
// and counted, while kept/selected nodes are always written so lineage
// stays complete. The stream is never sampled: a checker comparing two
// search graphs node by node needs every node below the cap.

// Generator steps of provenance nodes. They name the operator that
// produced the clause, not the learner: several learners share steps.
const (
	// StepSeedBottom is bottom-clause construction from a seed example
	// (saturation, IND-chased for Castor).
	StepSeedBottom = "seed_bottom"
	// StepARMG is asymmetric relative minimal generalization toward a
	// sampled positive example (Castor, ProGolem).
	StepARMG = "armg"
	// StepRLGG is the relative least general generalization of a pair of
	// saturations (Golem).
	StepRLGG = "rlgg"
	// StepGreedyExtension is greedy clause growth: Golem absorbing further
	// examples, FOIL adding its best-gain literal.
	StepGreedyExtension = "greedy_extension"
	// StepBeamRefine is a top-down beam refinement round (Progol).
	StepBeamRefine = "beam_refine"
	// StepNegativeReduction is negative reduction (§7.2.2).
	StepNegativeReduction = "negative_reduction"
	// StepMinimize is θ-subsumption minimization (§7.5.5).
	StepMinimize = "minimize"
)

// Dispositions of provenance nodes: what the search did with the clause.
const (
	// DispKept means the clause stayed alive (entered the beam, became the
	// working clause of a greedy learner, or is an intermediate product).
	DispKept = "kept"
	// DispPrunedScore means the clause scored too low to enter (or stay
	// in) the beam.
	DispPrunedScore = "pruned_score"
	// DispPrunedBudget means scoring was abandoned early because the
	// candidate provably could not beat the current bound.
	DispPrunedBudget = "pruned_budget"
	// DispPrunedDuplicate means the generator produced its own input (or a
	// clause already known) and the candidate was discarded unscored.
	DispPrunedDuplicate = "pruned_duplicate"
	// DispPrunedUnsafe means the clause was discarded unscored because it
	// is unsafe: a head variable is missing from its body (§7.3.2).
	DispPrunedUnsafe = "pruned_unsafe"
	// DispSelected marks a clause accepted into the final definition by
	// the covering loop. It appears on "select" records, which reference
	// the node that produced the clause.
	DispSelected = "selected"
)

// ProvNode is one candidate clause in the search graph. Pos, Neg and Score
// are -1 when the step never scored the clause.
type ProvNode struct {
	// Kind is "node" on the wire; set by the recorder.
	Kind string `json:"kind"`
	// ID is unique within the artifact, in emission order, starting at 1.
	ID uint64 `json:"id"`
	// Parents are the node IDs of the clause(s) this one was derived from;
	// empty for roots (seed bottom clauses).
	Parents []uint64 `json:"parents,omitempty"`
	// Step is the generator step (Step* constants).
	Step string `json:"step"`
	// Seed is the example the step worked toward, when applicable: the
	// saturated example for seed_bottom, the generalization target for
	// armg/greedy_extension.
	Seed string `json:"seed,omitempty"`
	// Clause is the candidate clause, rendered by logic.Clause.String.
	Clause string `json:"clause,omitempty"`
	// Literals is the body length of the clause.
	Literals int `json:"literals,omitempty"`
	// Pos and Neg are the covered positive/negative counts; -1 = unscored.
	Pos int `json:"pos"`
	Neg int `json:"neg"`
	// Score is the learner's score for the clause; -1 when unscored.
	Score float64 `json:"score"`
	// Disposition is one of the Disp* constants.
	Disposition string `json:"disposition"`
	// INDs are the inclusion dependencies applied while generating the
	// clause (seed_bottom nodes record the hops the chase followed).
	INDs []string `json:"inds,omitempty"`
}

// provSelect is the wire record marking a clause accepted into the final
// definition, referencing the node that produced it.
type provSelect struct {
	Kind   string `json:"kind"` // "select"
	Node   uint64 `json:"node"` // 0 when the producing node is unknown
	Clause string `json:"clause"`
	Pos    int    `json:"pos"`
	Neg    int    `json:"neg"`
}

// provSummary is the trailing record Close writes: totals and the
// aggregated IND firing counts of the whole run.
type provSummary struct {
	Kind    string           `json:"kind"` // "summary"
	Nodes   uint64           `json:"nodes"`
	Dropped uint64           `json:"dropped"`
	Selects int              `json:"selects"`
	INDs    map[string]int64 `json:"ind_firings,omitempty"`
}

// ProvOptions bound the recorder's overhead.
type ProvOptions struct {
	// MaxNodes caps how many nodes are written; 0 means DefaultProvMaxNodes
	// and a negative value means unlimited. Past the cap, pruned_* nodes
	// are dropped (and counted in the summary); kept nodes are always
	// written so every selected clause keeps a complete lineage.
	MaxNodes int64
}

// DefaultProvMaxNodes is the node cap used when ProvOptions.MaxNodes is 0.
const DefaultProvMaxNodes = 250_000

// Prov records the candidate search graph of one run as JSONL. A nil *Prov
// is the nop default: every method is nil-safe, so learners thread it the
// same way they thread *Run. Safe for concurrent use.
type Prov struct {
	mu      sync.Mutex
	out     fileWriter
	nextID  uint64
	written uint64
	dropped uint64
	selects int
	opts    ProvOptions
	inds    map[string]int64
	// byClause maps a clause rendering to the latest node that produced
	// it, so Selected can attach the covering loop's acceptance to the
	// learner's final node without the learner passing IDs around.
	byClause map[string]uint64
}

// NewProvenance wraps a writer. Call Close before reading what was
// written: output is buffered.
func NewProvenance(w io.Writer, opts ProvOptions) *Prov {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = DefaultProvMaxNodes
	}
	return &Prov{
		out:      newFileWriter(w),
		opts:     opts,
		inds:     make(map[string]int64),
		byClause: make(map[string]uint64),
	}
}

// CreateProvenanceFile creates (truncating) a provenance artifact and
// returns a recorder that owns it; Close writes the summary, flushes and
// closes the file.
func CreateProvenanceFile(path string, opts ProvOptions) (*Prov, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	p := NewProvenance(f, opts)
	p.out.c = f
	return p, nil
}

// Enabled reports whether nodes are recorded. Learners guard node
// construction with it so uninstrumented runs build no field strings.
func (p *Prov) Enabled() bool { return p != nil }

// Meta writes a leading metadata record ({"kind":"meta", ...}): what ran,
// so explain can label its answers. Call it once, before learning.
func (p *Prov) Meta(fields map[string]any) {
	if p == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["kind"] = "meta"
	rec["when"] = time.Now().UTC().Format(time.RFC3339)
	p.mu.Lock()
	p.writeLocked(rec)
	p.mu.Unlock()
}

// Node records one search-graph node, assigning and returning its ID. The
// returned ID is 0 when the node was dropped (nil recorder or the node
// cap) — parents of later nodes tolerate 0 entries being elided.
func (p *Prov) Node(n ProvNode) uint64 {
	if p == nil {
		return 0
	}
	prunedDisp := n.Disposition == DispPrunedScore || n.Disposition == DispPrunedBudget ||
		n.Disposition == DispPrunedDuplicate || n.Disposition == DispPrunedUnsafe
	p.mu.Lock()
	defer p.mu.Unlock()
	if prunedDisp && p.opts.MaxNodes > 0 && p.written >= uint64(p.opts.MaxNodes) {
		p.dropped++
		return 0
	}
	p.nextID++
	n.Kind = "node"
	n.ID = p.nextID
	// Elide the 0 IDs of parents that were themselves dropped.
	if len(n.Parents) > 0 {
		kept := n.Parents[:0]
		for _, id := range n.Parents {
			if id != 0 {
				kept = append(kept, id)
			}
		}
		n.Parents = kept
	}
	if n.Clause != "" {
		n.Literals = max(n.Literals, 0)
		p.byClause[n.Clause] = n.ID
	}
	p.written++
	p.writeLocked(n)
	return n.ID
}

// INDFired accumulates n applications of the inclusion dependency (its
// String rendering). The totals appear once, in the summary record.
func (p *Prov) INDFired(ind string, n int64) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	p.inds[ind] += n
	p.mu.Unlock()
}

// Selected marks the clause as accepted into the final definition by the
// covering loop, referencing the node that produced it (0 when no node
// recorded the clause — a learner that bypassed Node).
func (p *Prov) Selected(clause string, pos, neg int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.selects++
	p.writeLocked(provSelect{Kind: "select", Node: p.byClause[clause], Clause: clause, Pos: pos, Neg: neg})
	p.mu.Unlock()
}

// writeLocked marshals one record onto its own line. Caller holds mu.
func (p *Prov) writeLocked(rec any) {
	b, err := json.Marshal(rec)
	if err != nil {
		p.out.latch(err)
		return
	}
	p.out.write(append(b, '\n'))
}

// Close writes the summary record, flushes, and closes the artifact when
// the recorder owns it. It returns the first error any write hit, so a
// run that recorded into a full disk fails loudly.
func (p *Prov) Close() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	sum := provSummary{Kind: "summary", Nodes: p.written, Dropped: p.dropped, Selects: p.selects}
	if len(p.inds) > 0 {
		sum.INDs = make(map[string]int64, len(p.inds))
		names := make([]string, 0, len(p.inds))
		for k := range p.inds {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			sum.INDs[k] = p.inds[k]
		}
	}
	p.writeLocked(sum)
	err := p.out.close()
	p.mu.Unlock()
	return err
}

// WithProvenance returns a run that additionally records the candidate
// search graph into p. The receiver is not modified, a nil recorder
// returns the receiver unchanged, and a nil receiver with a live recorder
// returns a provenance-only run, so flag wiring stays unconditional.
func (r *Run) WithProvenance(p *Prov) *Run {
	if p == nil {
		return r
	}
	if r == nil {
		return &Run{prov: p}
	}
	return &Run{reg: r.reg, spans: r.spans, prov: p}
}

// Prov returns the run's provenance recorder, or nil. All recorder
// methods are nil-safe, so call sites need no guards — but hot loops
// should gate node construction on Prov().Enabled().
func (r *Run) Prov() *Prov {
	if r == nil {
		return nil
	}
	return r.prov
}
