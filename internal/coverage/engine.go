package coverage

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Probe is the state one worker's coverage tests share while it runs a
// shard: the tests accumulate into it (store statistics, counters) rather
// than into shared counters, and the engine publishes it once the shard is
// done. A probe serves one goroutine at a time.
type Probe interface {
	Publish()
}

// CoverFunc prepares one clause for coverage testing and returns its
// per-example test, which runs on the probe of the worker calling it. The
// engine calls it once per candidate per round, so per-clause work
// (compiling a store query, say) is paid once per round rather than once
// per example: on the submitting goroutine for a round over one
// candidate, and from the worker that first tests a candidate in a
// flattened round over many, so those rounds prepare their candidates in
// parallel. ilp.Tester supplies it, closing over the coverage mode (direct
// evaluation or θ-subsumption) and its own instrumentation; it and the
// tests it returns must be safe for concurrent use on distinct probes.
type CoverFunc[P Probe] func(c *logic.Clause) func(p P, e logic.Atom) bool

// NoBound disables the early-termination bound of ScoreBatch.
const NoBound = math.MinInt

// Engine evaluates clause coverage: sharded per-example parallelism
// inside one batch (§7.5.3), whole-result memoization keyed by canonical
// clause form (§7.5.4), and cross-candidate batched scoring with a global
// best-score bound shared by every worker.
type Engine[P Probe] struct {
	cover    CoverFunc[P]
	newProbe func() P
	// idle holds published probes for reuse. A plain list, not a
	// sync.Pool: a pool stays registered with the runtime until two
	// collections after its last use, which would keep the engine, and
	// through its CoverFunc every compiled saturation of a finished learn,
	// alive into the next one.
	mu      sync.Mutex
	idle    []P
	workers int
	cache   *Cache // nil disables memoization
	digests digestMemo
	run     *obs.Run
	// util accumulates pool busy/idle utilization across every pool this
	// engine creates; nil on unobserved runs.
	util *poolUtil
}

// NewEngine builds an engine whose tests run on probes made by newProbe.
// workers < 1 is treated as sequential; a nil cache disables memoization
// (the ablation path).
func NewEngine[P Probe](cover CoverFunc[P], newProbe func() P, workers int, cache *Cache, run *obs.Run) *Engine[P] {
	if workers < 1 {
		workers = 1
	}
	return &Engine[P]{cover: cover, newProbe: newProbe, workers: workers, cache: cache, run: run, util: newPoolUtil(run)}
}

// probe takes an idle probe, or makes one, for one shard of tests.
func (en *Engine[P]) probe() P {
	en.mu.Lock()
	defer en.mu.Unlock()
	if n := len(en.idle); n > 0 {
		p := en.idle[n-1]
		en.idle = en.idle[:n-1]
		return p
	}
	return en.newProbe()
}

// done publishes what the shard's tests accumulated on p and puts p back.
func (en *Engine[P]) done(p P) {
	p.Publish()
	en.mu.Lock()
	en.idle = append(en.idle, p)
	en.mu.Unlock()
}

// Covers tests one example outside any batch, publishing at once.
func (en *Engine[P]) Covers(c *logic.Clause, e logic.Atom) bool {
	p := en.probe()
	defer en.done(p)
	return en.cover(c)(p, e)
}

// shardCount picks how many shards a round of items should split into:
// an oversubscription factor over the worker count for load balancing,
// clamped to the item count. The plan depends on nothing but the worker
// and item counts, so observed and unobserved runs shard alike.
func (en *Engine[P]) shardCount(items int) int {
	return max(min(en.workers*shardOversub, items), 1)
}

// CoveredSet tests the clause against every example. known, when non-nil,
// marks examples already known covered (because the clause generalizes one
// that covered them) and skips their tests; out-of-range known bits read
// as unset. The result is memoized: a repeat of the same clause (up to
// variable renaming) over the same example set is answered from cache.
func (en *Engine[P]) CoveredSet(c *logic.Clause, examples []logic.Atom, known *Bitset) *Bitset {
	var sp *obs.Span
	if en.run.Spanning() {
		sp = en.run.StartSpan("coverage_batch", obs.F("examples", len(examples)))
	}
	out := en.coveredSet(c, examples, known, nil)
	if sp != nil {
		sp.Annotate(obs.F("covered", out.Count()))
		sp.End()
	}
	return out
}

// coveredSet is CoveredSet without the span, with an explicit pool (nil
// runs inline) so ScoreBatch can reuse its workers.
func (en *Engine[P]) coveredSet(c *logic.Clause, examples []logic.Atom, known *Bitset, pl *pool) *Bitset {
	if en.cache == nil {
		return en.evaluate(c, examples, known, pl)
	}
	key := en.cache.Key(c, en.digests.key(examples))
	if hit, ok := en.cache.Get(key); ok && hit.Len() == len(examples) {
		en.run.Inc(obs.CCoverageCacheHits)
		return hit
	}
	en.run.Inc(obs.CCoverageCacheMisses)
	out := en.evaluate(c, examples, known, pl)
	en.cache.Put(key, out)
	return out
}

// evaluate runs the actual per-example tests, sharded over the pool.
func (en *Engine[P]) evaluate(c *logic.Clause, examples []logic.Atom, known *Bitset, pl *pool) *Bitset {
	n := len(examples)
	if known != nil {
		// §7.5.4 known-covered shortcut: tests this batch skips outright.
		skipped := int64(0)
		for i := range examples {
			if known.Get(i) {
				skipped++
			}
		}
		en.run.Add(obs.CCoverageSkipped, skipped)
	}
	test := en.cover(c)
	ownPool := false
	if pl == nil && en.workers > 1 && n >= 2 {
		pl = newPool(en.workers, "coverage_testing", en.util)
		ownPool = true
	}
	if pl == nil {
		out := New(n)
		p := en.probe()
		for i, e := range examples {
			en.run.Heartbeat()
			if known.Get(i) || test(p, e) {
				out.Set(i)
			}
		}
		en.done(p)
		return out
	}
	// Workers record into a byte-per-example buffer, not the bitset:
	// concurrent writes to neighbouring bits would race on shared words.
	buf := make([]bool, n)
	shards := planShards(n, en.shardCount(n))
	runShards(en.run, pl, "coverage_testing", shards, func(sh shard) {
		p := en.probe()
		for i := sh.lo; i < sh.hi; i++ {
			en.run.Heartbeat()
			buf[i] = known.Get(i) || test(p, examples[i])
		}
		en.done(p)
	})
	if ownPool {
		pl.close()
	}
	return FromBools(buf)
}

// Candidate is one clause queued for batched scoring, with optional
// known-covered sets inherited from the clause it generalizes.
type Candidate struct {
	Clause   *logic.Clause
	KnownPos *Bitset
	KnownNeg *Bitset
}

// Score is the evaluation of one candidate. When Pruned, the negative
// side was abandoned: Neg is empty and N is zero, and the candidate is
// guaranteed unable to make the caller's keep set (it cannot beat the
// floor, or at least keep already-completed candidates score strictly
// above it). Pos and P are always exact. The pruned payload is canonical —
// no partial scan state — so ScoreBatch output is byte-identical for
// every worker count and cache setting.
type Score struct {
	Clause *logic.Clause
	Pos    *Bitset
	Neg    *Bitset
	P, N   int
	Pruned bool
}

// bestBound is the cross-worker pruning bound of one batch: the keep-th
// best completed compression score, published atomically so every shard
// of every candidate prunes against the current winner. Scores enter in
// candidate index order, which makes the bound — and therefore which
// candidates get pruned — deterministic.
type bestBound struct {
	keep   int
	scores []int        // sorted descending, at most keep entries
	bound  atomic.Int64 // keep-th best score once keep candidates completed
	armed  atomic.Bool
}

func newBestBound(keep int) *bestBound {
	if keep <= 0 {
		return nil
	}
	return &bestBound{keep: keep}
}

// offer records one completed score.
func (bb *bestBound) offer(score int) {
	if bb == nil {
		return
	}
	if len(bb.scores) < bb.keep {
		bb.scores = append(bb.scores, score)
	} else if score > bb.scores[bb.keep-1] {
		bb.scores[bb.keep-1] = score
	} else {
		return
	}
	for i := len(bb.scores) - 1; i > 0 && bb.scores[i] > bb.scores[i-1]; i-- {
		bb.scores[i], bb.scores[i-1] = bb.scores[i-1], bb.scores[i]
	}
	if len(bb.scores) == bb.keep {
		bb.bound.Store(int64(bb.scores[bb.keep-1]))
		bb.armed.Store(true)
	}
}

// threshold returns the current keep-th best completed score; ok is false
// until keep candidates have completed.
func (bb *bestBound) threshold() (int, bool) {
	if bb == nil || !bb.armed.Load() {
		return 0, false
	}
	return int(bb.bound.Load()), true
}

// ScoreBatch evaluates candidates over the worker pool in two phases:
// every candidate's positive cover is computed exactly in one flattened
// sharded round, then negative scans run in candidate index order,
// each sharded across all workers with a cooperative abort.
//
// floor, unless NoBound, is a compression score (p−n) the candidates must
// strictly beat. keep > 0 additionally arms the shared best-score bound:
// once keep candidates have completed, a candidate whose score cannot
// reach the keep-th best completed score is abandoned too — it could
// never survive the caller's width trim (strictly better candidates
// already fill every slot, and the caller breaks ties by index). A
// candidate is pruned exactly when its full score s satisfies s ≤ floor
// or s < keep-th best; both predicates depend only on final counts, never
// on scan timing, so pruning decisions are identical for every worker
// count and cache setting. Complete results are memoized; pruned ones are
// not, and carry a canonical empty negative side. keep ≤ 0 disables the
// shared bound (callers that need exact counts, like FOIL's gain).
func (en *Engine[P]) ScoreBatch(cands []Candidate, pos, neg []logic.Atom, floor, keep int) []Score {
	var sp *obs.Span
	if en.run.Spanning() {
		sp = en.run.StartSpan("score_batch", obs.F("candidates", len(cands)))
	}
	defer sp.End()

	out := make([]Score, len(cands))
	if len(cands) == 0 {
		return out
	}
	var pl *pool
	if en.workers > 1 {
		pl = newPool(en.workers, "candidate_scoring", en.util)
		defer pl.close()
	}

	// Phase A: every candidate's positive cover, exact, one flattened
	// round. Positive counts are needed in full for any score, so there
	// is nothing to prune yet and no ordering constraint.
	posSets := en.batchCovered(pl, cands, pos, en.setKey(pos), true)
	for i := range cands {
		en.run.Inc(obs.CCandidatesScored)
		out[i] = Score{Clause: cands[i].Clause, Pos: posSets[i], P: posSets[i].Count()}
	}

	negKey := en.setKey(neg)
	if floor == NoBound && keep <= 0 {
		// Unbounded batch: the negative side flattens into one round too.
		negSets := en.batchCovered(pl, cands, neg, negKey, false)
		for i := range cands {
			out[i].Neg = negSets[i]
			out[i].N = negSets[i].Count()
		}
		return out
	}

	// Phase B: bounded negative scans, candidate by candidate in index
	// order. Each scan shards its examples across every worker; the shared
	// bound tightens as candidates complete.
	bb := newBestBound(keep)
	for i := range cands {
		en.scoreNeg(pl, &out[i], cands[i], neg, negKey, floor, bb)
	}
	return out
}

// setKey digests an example list for the memo cache, once per list, or
// returns "" when memoization is off.
func (en *Engine[P]) setKey(examples []logic.Atom) string {
	if en.cache == nil {
		return ""
	}
	return en.digests.key(examples)
}

// batchCovered computes each candidate's covered set over one example
// list in a single flattened sharded round: cache lookups first,
// then every remaining (candidate, example) pair as one work item.
// setKey is the list's SetKey (unused without a cache); pos selects which
// known-covered set applies.
func (en *Engine[P]) batchCovered(pl *pool, cands []Candidate, examples []logic.Atom, setKey string, pos bool) []*Bitset {
	sets := make([]*Bitset, len(cands))
	var keys []string
	if en.cache != nil {
		keys = make([]string, len(cands))
		for i := range cands {
			keys[i] = en.cache.Key(cands[i].Clause, setKey)
			if hit, ok := en.cache.Get(keys[i]); ok && hit.Len() == len(examples) {
				en.run.Inc(obs.CCoverageCacheHits)
				sets[i] = hit
				continue
			}
			en.run.Inc(obs.CCoverageCacheMisses)
		}
	}
	// Flatten the misses into (candidate, example) items; known-covered
	// bits prefill their buffers and never become items.
	known := func(i int) *Bitset {
		if pos {
			return cands[i].KnownPos
		}
		return cands[i].KnownNeg
	}
	bufs := make([][]bool, len(cands))
	tests := make([]func(P, logic.Atom) bool, len(cands))
	var itemCand, itemEx []int32
	skipped := int64(0)
	for i := range cands {
		if sets[i] != nil {
			continue
		}
		bufs[i] = make([]bool, len(examples))
		items := len(itemCand)
		for j := range examples {
			if known(i).Get(j) {
				bufs[i][j] = true
				skipped++
				continue
			}
			itemCand = append(itemCand, int32(i))
			itemEx = append(itemEx, int32(j))
		}
		if len(itemCand) > items {
			tests[i] = en.lazyCover(cands[i].Clause)
		}
	}
	en.run.Add(obs.CCoverageSkipped, skipped)
	if len(itemCand) > 0 {
		shards := planShards(len(itemCand), en.shardCount(len(itemCand)))
		runShards(en.run, pl, "candidate_scoring", shards, func(sh shard) {
			p := en.probe()
			for k := sh.lo; k < sh.hi; k++ {
				en.run.Heartbeat()
				ci, ej := itemCand[k], itemEx[k]
				if tests[ci](p, examples[ej]) {
					bufs[ci][ej] = true
				}
			}
			en.done(p)
		})
	}
	for i := range cands {
		if sets[i] != nil {
			continue
		}
		sets[i] = FromBools(bufs[i])
		if en.cache != nil {
			en.cache.Put(keys[i], sets[i])
		}
	}
	return sets
}

// lazyCover defers preparing c to its first test, so the workers of a
// flattened round prepare its candidates in parallel; the Once keeps it
// to one preparation per candidate per round.
func (en *Engine[P]) lazyCover(c *logic.Clause) func(P, logic.Atom) bool {
	var once sync.Once
	var test func(P, logic.Atom) bool
	return func(p P, e logic.Atom) bool {
		once.Do(func() { test = en.cover(c) })
		return test(p, e)
	}
}

// scoreNeg runs one candidate's bounded negative scan. s carries the
// exact positive side already; the scan shards the negatives across the
// pool and aborts cooperatively once the score provably cannot beat the
// effective bound (the floor or the shared keep-th best). The abort fires
// exactly when the candidate's full score crosses the bound — covered
// negatives only accumulate — so prunedness is timing-independent. negKey
// is SetKey(neg), computed once per batch.
func (en *Engine[P]) scoreNeg(pl *pool, s *Score, cand Candidate, neg []logic.Atom, negKey string, floor int, bb *bestBound) {
	p := s.P
	// limit is the strongest applicable bound: pruned ⇔ p−n ≤ limit.
	// Beating the floor requires s > floor; surviving the shared bound
	// requires s ≥ keep-th best, i.e. pruned when s ≤ threshold−1.
	limit := NoBound
	if floor != NoBound {
		limit = floor
	}
	if t, ok := bb.threshold(); ok && t-1 > limit {
		limit = t - 1
	}
	prune := func() {
		en.run.Inc(obs.CCandidatesPruned)
		s.Pruned = true
		s.Neg = New(len(neg))
		s.N = 0
	}
	complete := func(set *Bitset, n int) {
		s.Neg, s.N = set, n
		if limit != NoBound && p-n <= limit {
			// Uniform prunedness: a fully-scanned score at or below the
			// bound reports the same canonical pruned payload a mid-scan
			// abort would, so cache hits and worker counts cannot change
			// the output.
			prune()
			return
		}
		bb.offer(p - n)
	}
	if limit != NoBound && p <= limit {
		// Even a clean candidate (n = 0) cannot beat the bound: every
		// negative pair is avoided outright.
		en.run.Add(obs.CPruneSkippedPairs, int64(len(neg)))
		prune()
		return
	}
	var key string
	if en.cache != nil {
		key = en.cache.Key(cand.Clause, negKey)
		if hit, ok := en.cache.Get(key); ok && hit.Len() == len(neg) {
			en.run.Inc(obs.CCoverageCacheHits)
			complete(hit, hit.Count())
			return
		}
		en.run.Inc(obs.CCoverageCacheMisses)
	}
	// The candidate survives while it covers at most p−limit−1 negatives.
	most := math.MaxInt
	if limit != NoBound {
		most = p - limit - 1
	}
	sc := en.scanUpTo(pl, "candidate_scoring", cand.Clause, neg, cand.KnownNeg, most)
	if sc.stopped {
		// Pruning efficiency split: pairs the abort saved vs. pairs scored
		// before the bound tripped (wasted — their results are discarded).
		en.run.Add(obs.CPruneSkippedPairs, int64(sc.items)-sc.tested)
		en.run.Add(obs.CPruneWastedPairs, sc.tested)
		prune()
		return
	}
	set := FromBools(sc.buf)
	if en.cache != nil {
		en.cache.Put(key, set)
	}
	complete(set, sc.covered)
	if s.Pruned {
		// Fully scanned, then discarded at the bound check: pure waste the
		// shared bound arrived too late to save.
		en.run.Add(obs.CPruneWastedPairs, int64(sc.items))
	}
}

// CoversAtMost reports whether c covers at most limit of the examples,
// that is whether CoveredSet(c, examples, known).Count() <= limit, without
// running the tests after the one that decides it: known-covered examples
// count without a test, and the sharded scan stops at the test that pushes
// the count past limit. A memoized set answers outright; a scan that
// completes is memoized as CoveredSet's would be, and one that stops is
// not, since its set is partial. The call is one coverage_batch span,
// whose covered field reads limit+1 for a clause that covers more.
func (en *Engine[P]) CoversAtMost(c *logic.Clause, examples []logic.Atom, known *Bitset, limit int) bool {
	var sp *obs.Span
	if en.run.Spanning() {
		sp = en.run.StartSpan("coverage_batch", obs.F("examples", len(examples)))
	}
	n := en.coversAtMost(c, examples, known, limit)
	if sp != nil {
		sp.Annotate(obs.F("covered", min(n, limit+1)))
		sp.End()
	}
	return n <= limit
}

// coversAtMost is CoversAtMost without the span: it returns the covered
// count, or a count past limit once the scan stops.
func (en *Engine[P]) coversAtMost(c *logic.Clause, examples []logic.Atom, known *Bitset, limit int) int {
	var key string
	if en.cache != nil {
		key = en.cache.Key(c, en.setKey(examples))
		if hit, ok := en.cache.Get(key); ok && hit.Len() == len(examples) {
			en.run.Inc(obs.CCoverageCacheHits)
			return hit.Count()
		}
		en.run.Inc(obs.CCoverageCacheMisses)
	}
	var pl *pool
	if en.workers > 1 && len(examples) >= 2 {
		pl = newPool(en.workers, "coverage_testing", en.util)
		defer pl.close()
	}
	sc := en.scanUpTo(pl, "coverage_testing", c, examples, known, limit)
	if !sc.stopped && en.cache != nil {
		en.cache.Put(key, FromBools(sc.buf))
	}
	return sc.covered
}

// scan is the outcome of one clause's bounded scan over an example list.
type scan struct {
	buf     []bool // covered examples, known-covered ones included
	covered int    // examples found covered, knowns included
	items   int    // examples the scan had to test: those outside known
	tested  int64  // tests run before the scan completed or stopped
	stopped bool   // covered passed the bound; buf and covered are partial
}

// scanUpTo tests c against every example known does not mark, sharded
// over pl (nil runs the shards inline under label), and stops at the test
// that pushes the covered count, known-covered examples included, past
// most: it stops before any test when the knowns alone pass it. The count
// only grows toward the full count, so whether a scan stops is the same
// in every schedule and for every worker count; only how many tests ran
// before it stopped varies.
func (en *Engine[P]) scanUpTo(pl *pool, label string, c *logic.Clause, examples []logic.Atom, known *Bitset, most int) scan {
	sc := scan{buf: make([]bool, len(examples))}
	items := make([]int32, 0, len(examples))
	for j := range examples {
		if known.Get(j) {
			sc.buf[j] = true
			sc.covered++
			continue
		}
		items = append(items, int32(j))
	}
	sc.items = len(items)
	en.run.Add(obs.CCoverageSkipped, int64(sc.covered))
	if sc.covered > most {
		sc.stopped = true
		return sc
	}
	if len(items) == 0 {
		return sc
	}
	base := sc.covered
	test := en.cover(c)
	var covered, tested atomic.Int64
	var stopped atomic.Bool
	runShards(en.run, pl, label, planShards(len(items), en.shardCount(len(items))), func(sh shard) {
		local := int64(0)
		pr := en.probe()
		defer func() {
			tested.Add(local)
			en.done(pr)
		}()
		for k := sh.lo; k < sh.hi; k++ {
			if stopped.Load() {
				return
			}
			en.run.Heartbeat()
			local++
			j := items[k]
			if test(pr, examples[j]) {
				sc.buf[j] = true
				if base+int(covered.Add(1)) > most {
					stopped.Store(true)
					return
				}
			}
		}
	})
	sc.covered = base + int(covered.Load())
	sc.tested = tested.Load()
	sc.stopped = stopped.Load()
	return sc
}
