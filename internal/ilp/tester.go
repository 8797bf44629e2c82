package ilp

import (
	"encoding/binary"
	"sync"

	"repro/internal/coverage"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/subsume"
)

// Tester decides clause coverage of examples, in one of two modes
// (§7.5.3): direct evaluation against the indexed store, or θ-subsumption
// against the example's ground bottom clause. Evaluation runs on a
// coverage.Engine: example sets shard over a worker pool (Parallelism),
// whole results are memoized by canonical clause form, candidate batches
// score concurrently with an early-termination bound, and the
// known-covered shortcut implements the paper's coverage caching (§7.5.4).
type Tester struct {
	prob   *Problem
	params Params
	run    *obs.Run // from params.Obs; nil observes nothing
	engine *coverage.Engine

	// SatFn overrides how ground bottom clauses are built for
	// subsumption-mode coverage. Castor installs its IND-chasing
	// construction here so that coverage semantics stay schema independent;
	// when nil the classic saturation of §6.1 is used.
	SatFn func(e logic.Atom) *logic.Clause

	// Subsumption mode only. space is the id space saturations compile
	// into and candidates are prepared against: the instance's constants
	// plus the relation names, the target predicate and the example
	// constants the instance lacks. sats maps each distinct example of the
	// problem, keyed by its interned ids, to its saturation entry; it is
	// filled in NewTester and read lock-free afterwards, so every worker
	// of a beam batch finds and shares one compiled target without mutex
	// traffic. Examples outside the problem go to stray, under strayMu.
	space   *subsume.Space
	sats    map[string]*satEntry
	strayMu sync.Mutex
	stray   map[string]*satEntry
}

// satEntry holds one example's compiled ground bottom clause. The Once
// guarantees exactly one compilation per example — concurrent probers for
// the same example wait for it instead of racing duplicate builds.
type satEntry struct {
	once sync.Once
	cd   *subsume.Compiled
}

// NewTester builds a tester for the problem. As a side effect it attaches
// params.Obs to the problem's instance, so store-level scans during this
// learner's run report into the same registry, and registers the
// instance's per-relation access statistics as the registry's store
// source, so /metrics and run reports expose them (every learner builds
// its tester first).
func NewTester(prob *Problem, params Params) *Tester {
	prob.Instance.SetObs(params.Obs)
	// Learning only reads the store: freeze it now so the posting indexes
	// compact once, up front, instead of lazily under the first concurrent
	// probe.
	prob.Instance.Freeze()
	t := &Tester{prob: prob, params: params, run: params.Obs}
	if reg := params.Obs.Registry(); reg != nil {
		reg.SetStoreSource(prob.Instance.StoreStats)
	}
	if params.CoverageMode == CoverageSubsumption {
		t.initSaturations()
	}
	var cache *coverage.Cache
	if !params.DisableCoverageCache {
		cache = coverage.NewCache(0)
	}
	t.engine = coverage.NewEngine(t.coverer, params.Parallelism, cache, params.Obs)
	return t
}

// initSaturations builds the subsumption-mode id space and one saturation
// entry per distinct example of the problem.
func (t *Tester) initSaturations() {
	prob := t.prob
	var names []string
	for _, rel := range prob.Instance.Schema().Relations() {
		names = append(names, rel.Name)
	}
	if prob.Target != nil {
		names = append(names, prob.Target.Name)
	}
	examples := append(append([]logic.Atom(nil), prob.Pos...), prob.Neg...)
	for _, e := range examples {
		names = append(names, e.Pred)
		for _, a := range e.Args {
			names = append(names, a.Name)
		}
	}
	t.space = subsume.NewSpace(prob.Instance.Symbols(), names...)
	t.sats = make(map[string]*satEntry, len(examples))
	for _, e := range examples {
		if k, ok := t.exampleKey(nil, e); ok && t.sats[string(k)] == nil {
			t.sats[string(k)] = &satEntry{}
		}
	}
}

// exampleKey appends the example's interned form — predicate and argument
// ids, four bytes each — to dst; false when the space lacks one of its
// names.
func (t *Tester) exampleKey(dst []byte, e logic.Atom) ([]byte, bool) {
	id, ok := t.space.Lookup(e.Pred)
	if !ok {
		return nil, false
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	for _, a := range e.Args {
		if id, ok = t.space.Lookup(a.Name); !ok {
			return nil, false
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst, true
}

// Run returns the tester's instrumentation run (possibly nil), for
// learners that want to report through the same channel.
func (t *Tester) Run() *obs.Run { return t.run }

// Covers reports whether the clause covers the example. Testing many
// examples against one clause goes through the engine instead, which
// prepares the clause once.
func (t *Tester) Covers(c *logic.Clause, e logic.Atom) bool {
	return t.coverer(c)(e)
}

// coverer is the engine's CoverFunc: it prepares the clause once and
// returns its per-example test, safe for concurrent use. Direct mode
// compiles the clause into a store query; subsumption mode prepares it
// against the tester's space and probes each example's compiled
// saturation with it.
func (t *Tester) coverer(c *logic.Clause) func(logic.Atom) bool {
	if t.params.CoverageMode != CoverageSubsumption {
		q := t.prob.Instance.Compile(c)
		return func(e logic.Atom) bool {
			t.run.Inc(obs.CCoverageTests)
			return q.Covers(e)
		}
	}
	src := t.space.Prepare(c)
	return func(e logic.Atom) bool {
		t.run.Inc(obs.CCoverageTests)
		return t.saturation(e).Probe(t.run, src)
	}
}

// saturation returns (building, compiling and caching on demand) the
// ground bottom clause of the example in the engine's compile-once form:
// the clause is compiled into the tester's space exactly once — a Once
// per example, so concurrent shard workers never compile duplicates — and
// every candidate the covering loop scores against this example probes
// the same compilation from every worker, the match-many side of the
// §7.5.3 engine.
func (t *Tester) saturation(e logic.Atom) *subsume.Compiled {
	ent := t.satEntry(e)
	built := false
	ent.once.Do(func() {
		built = true
		t.run.Inc(obs.CSaturationMisses)
		var bc *logic.Clause
		if t.SatFn != nil {
			bc = t.SatFn(e)
		} else {
			bc = Saturation(t.prob, e, t.params.Depth, t.params.MaxRecall)
		}
		ent.cd = t.space.Compile(bc)
	})
	if !built {
		t.run.Inc(obs.CSaturationHits)
	}
	return ent.cd
}

// satEntry finds the example's saturation entry: a lock-free map load by
// interned ids for the problem's examples, a locked lookup by name for
// any other atom.
func (t *Tester) satEntry(e logic.Atom) *satEntry {
	var buf [64]byte
	if k, ok := t.exampleKey(buf[:0], e); ok {
		if ent := t.sats[string(k)]; ent != nil {
			return ent
		}
	}
	k := e.Key()
	t.strayMu.Lock()
	defer t.strayMu.Unlock()
	ent := t.stray[k]
	if ent == nil {
		if t.stray == nil {
			t.stray = make(map[string]*satEntry)
		}
		ent = &satEntry{}
		t.stray[k] = ent
	}
	return ent
}

// knowns strips the known-covered shortcut when the §7.5.4 cache is
// disabled, so the ablation gates every caller centrally.
func (t *Tester) knowns(known *coverage.Bitset) *coverage.Bitset {
	if t.params.DisableCoverageCache {
		return nil
	}
	return known
}

// CoveredSet tests the clause against every example, in parallel when
// Parallelism > 1. known, when non-nil, marks examples already known to be
// covered (because the clause generalizes one that covered them); those
// tests are skipped — the §7.5.4 coverage cache. Known bits beyond the
// example count are ignored, and a short known set simply skips fewer
// tests; neither mismatch is an error. Results are memoized by canonical
// clause form unless DisableCoverageCache is set.
func (t *Tester) CoveredSet(c *logic.Clause, examples []logic.Atom, known *coverage.Bitset) *coverage.Bitset {
	return t.engine.CoveredSet(c, examples, t.knowns(known))
}

// Count returns how many of the examples the clause covers. known works as
// in CoveredSet, so covering-loop re-tests hit the cache too.
func (t *Tester) Count(c *logic.Clause, examples []logic.Atom, known *coverage.Bitset) int {
	return t.CoveredSet(c, examples, known).Count()
}

// PosNeg returns the clause's positive and negative coverage counts.
func (t *Tester) PosNeg(c *logic.Clause, pos, neg []logic.Atom, knownPos, knownNeg *coverage.Bitset) (p, n int) {
	return t.Count(c, pos, knownPos), t.Count(c, neg, knownNeg)
}

// ScoreBatch scores independent candidates concurrently over the worker
// pool. floor, unless coverage.NoBound, is a compression score (p−n) that
// candidates must strictly beat: ones that provably cannot are abandoned
// mid-scan and returned with Pruned set. keep > 0 is the caller's beam
// width, arming the engine's shared best-score bound: candidates that
// provably cannot crack the top keep completed scores of this batch are
// abandoned too. Pass keep ≤ 0 when exact counts are needed for every
// candidate.
func (t *Tester) ScoreBatch(cands []coverage.Candidate, pos, neg []logic.Atom, floor, keep int) []coverage.Score {
	if t.params.DisableCoverageCache {
		for i := range cands {
			cands[i].KnownPos, cands[i].KnownNeg = nil, nil
		}
	}
	return t.engine.ScoreBatch(cands, pos, neg, floor, keep)
}

// Precision returns p/(p+n), or 0 when nothing is covered.
func Precision(p, n int) float64 {
	if p+n == 0 {
		return 0
	}
	return float64(p) / float64(p+n)
}

// AcceptClause reports whether a clause with coverage (p, n) meets the
// minimum condition of the covering loop: at least MinPos positives and
// precision at least MinPrec.
func AcceptClause(params Params, p, n int) bool {
	if p < params.MinPos {
		return false
	}
	return Precision(p, n) >= params.MinPrec
}
