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
// engine calls it at most once per candidate per round, so per-clause work
// (compiling a store query, say) is paid once per round rather than once
// per example: on the submitting goroutine for a round over one
// candidate, and from the worker that first tests a candidate in a round
// over many, so those rounds prepare their candidates in parallel. A
// candidate whose round needs no test is never prepared. ilp.Tester
// supplies it, closing over the coverage mode (direct evaluation or
// θ-subsumption) and its own instrumentation; it and the tests it returns
// must be safe for concurrent use on distinct probes.
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
	set, _ := en.scanOne(c, examples, known, math.MaxInt)
	return set
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
	_, n := en.scanOne(c, examples, known, limit)
	return n <= limit
}

// scanOne runs one job over examples in a coverage_batch span, whose
// covered field is the covered count capped at most+1.
func (en *Engine[P]) scanOne(c *logic.Clause, examples []logic.Atom, known *Bitset, most int) (*Bitset, int) {
	var sp *obs.Span
	if en.run.Spanning() {
		sp = en.run.StartSpan("coverage_batch", obs.F("examples", len(examples)))
	}
	jobs := []job[P]{{clause: c, known: known, most: most}}
	en.scan(nil, "coverage_testing", examples, en.setKey(examples), jobs)
	set := jobs[0].set
	n := set.Count()
	if n > most {
		n = most + 1
	}
	if sp != nil {
		sp.Annotate(obs.F("covered", n))
		sp.End()
	}
	return set, n
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
	posJobs := candidateJobs[P](cands, false)
	en.scan(pl, "candidate_scoring", pos, en.setKey(pos), posJobs)
	for i := range cands {
		en.run.Inc(obs.CCandidatesScored)
		set := posJobs[i].set
		out[i] = Score{Clause: cands[i].Clause, Pos: set, P: set.Count()}
	}

	negKey := en.setKey(neg)
	if floor == NoBound && keep <= 0 {
		// Unbounded batch: the negative side flattens into one round too.
		negJobs := candidateJobs[P](cands, true)
		en.scan(pl, "candidate_scoring", neg, negKey, negJobs)
		for i := range cands {
			out[i].Neg = negJobs[i].set
			out[i].N = out[i].Neg.Count()
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

// candidateJobs makes one unbounded job per candidate, carrying its known
// negatives or positives.
func candidateJobs[P Probe](cands []Candidate, neg bool) []job[P] {
	jobs := make([]job[P], len(cands))
	for i, c := range cands {
		jobs[i].clause, jobs[i].known, jobs[i].most = c.Clause, c.KnownPos, math.MaxInt
		if neg {
			jobs[i].known = c.KnownNeg
		}
	}
	return jobs
}

// setKey digests an example list for the memo cache, once per list, or
// returns "" when memoization is off.
func (en *Engine[P]) setKey(examples []logic.Atom) string {
	if en.cache == nil {
		return ""
	}
	return en.digests.key(examples)
}

// scoreNeg runs one candidate's bounded negative scan. s carries the
// exact positive side already; the scan stops once the score provably
// cannot beat the effective bound (the floor or the shared keep-th best).
// The stop fires exactly when the candidate's full score crosses the bound
// — covered negatives only accumulate — so prunedness is
// timing-independent. negKey is SetKey(neg), computed once per batch.
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
	if limit != NoBound && p <= limit {
		// Even a clean candidate (n = 0) cannot beat the bound: every
		// negative pair is avoided outright.
		en.run.Add(obs.CPruneSkippedPairs, int64(len(neg)))
		prune()
		return
	}
	// The candidate survives while it covers at most p−limit−1 negatives.
	jobs := []job[P]{{clause: cand.Clause, known: cand.KnownNeg, most: math.MaxInt}}
	if limit != NoBound {
		jobs[0].most = p - limit - 1
	}
	en.scan(pl, "candidate_scoring", neg, negKey, jobs)
	jb := &jobs[0]
	n := jb.set.Count()
	if limit != NoBound && p-n <= limit {
		// A stopped scan, or a memoized set at or below the bound (a
		// complete scan never is: it would have stopped). Both report the
		// canonical pruned payload, so cache hits and worker counts cannot
		// change the output. Pruning efficiency split: pairs the stop saved
		// vs. pairs tested before it (wasted: their results are discarded);
		// a memoized set tested none.
		tested := jb.tested.Load()
		en.run.Add(obs.CPruneSkippedPairs, int64(jb.items)-tested)
		en.run.Add(obs.CPruneWastedPairs, tested)
		prune()
		return
	}
	s.Neg, s.N = jb.set, n
	bb.offer(p - n)
}

// job is one clause's share of a scan round. Its known-covered examples
// count without a test, and its scan stops once more than most examples
// are covered (math.MaxInt never stops). scan fills in the rest.
type job[P Probe] struct {
	clause *logic.Clause
	known  *Bitset
	most   int

	set     *Bitset      // covered examples, knowns included; partial when stopped
	items   int          // examples outside known: those the scan had to test
	tested  atomic.Int64 // tests run
	stopped atomic.Bool  // the covered count passed most

	key     string       // memo key, when memoization is on
	cov     []bool       // the job's row of the round's results
	covered atomic.Int64 // covered count, knowns included, of a bounded job
	prep    sync.Once
	test    func(P, logic.Atom) bool
}

// prepare returns the job's test, preparing its clause on first use.
func (jb *job[P]) prepare(cover CoverFunc[P]) func(P, logic.Atom) bool {
	jb.prep.Do(func() { jb.test = cover(jb.clause) })
	return jb.test
}

// scan runs jobs over one example list in a single round. A memoized set
// answers a job outright. The examples of every other job that its known
// set does not mark become (job, example) pairs, indexed arithmetically
// and sharded over pl; a nil pl runs the round inline, or on a pool of
// its own when the engine has workers to spare. The first worker to test
// a job's clause prepares it, unless the round has only that job. A
// bounded job stops at the test that pushes
// its covered count past most, or before any test when its knowns alone
// do: the count only grows toward the full count, so whether a job stops
// is the same in every schedule and for every worker count; only how many
// tests ran before it varies. Complete sets are memoized under the list's
// setKey; stopped ones are not, since they are partial.
func (en *Engine[P]) scan(pl *pool, label string, examples []logic.Atom, setKey string, jobs []job[P]) {
	n, misses := len(examples), len(jobs)
	for i := 0; i < len(jobs) && en.cache != nil; i++ {
		jb := &jobs[i]
		jb.key = en.cache.Key(jb.clause, setKey)
		if hit, ok := en.cache.Get(jb.key); ok && hit.Len() == n {
			en.run.Inc(obs.CCoverageCacheHits)
			jb.set = hit
			misses--
			continue
		}
		en.run.Inc(obs.CCoverageCacheMisses)
	}
	// One byte per pair, not a bitset: workers writing neighbouring bits
	// would race on shared words. Known-covered examples are set up front
	// and never tested.
	cov := make([]bool, misses*n)
	var active []*job[P]
	skipped := int64(0)
	for i := range jobs {
		jb := &jobs[i]
		if jb.set != nil {
			continue
		}
		jb.cov, cov = cov[:n:n], cov[n:]
		known := 0
		for j := range jb.cov {
			if jb.known.Get(j) {
				jb.cov[j] = true
				known++
			}
		}
		skipped += int64(known)
		jb.items = n - known
		jb.covered.Store(int64(known))
		if known > jb.most {
			jb.stopped.Store(true)
		} else if jb.items > 0 {
			active = append(active, jb)
		}
	}
	en.run.Add(obs.CCoverageSkipped, skipped)
	if pairs := len(active) * n; pairs > 0 {
		if len(active) == 1 {
			// Every worker of a one-job round would wait for its
			// preparation: prepare it here instead.
			active[0].prepare(en.cover)
		}
		if pl == nil && en.workers > 1 && pairs >= 2 {
			pl = newPool(en.workers, label, en.util)
			defer pl.close()
		}
		runShards(en.run, pl, label, planShards(pairs, en.shardCount(pairs)), func(sh shard) {
			pr := en.probe()
			for k := sh.lo; k < sh.hi; {
				jb, lo := active[k/n], k%n
				hi := min(n, lo+sh.hi-k)
				k += hi - lo
				var test func(P, logic.Atom) bool
				tested := int64(0)
				for j := lo; j < hi && !jb.stopped.Load(); j++ {
					if jb.cov[j] {
						continue
					}
					if test == nil {
						test = jb.prepare(en.cover)
					}
					en.run.Heartbeat()
					tested++
					if test(pr, examples[j]) {
						jb.cov[j] = true
						if jb.most != math.MaxInt && jb.covered.Add(1) > int64(jb.most) {
							jb.stopped.Store(true)
						}
					}
				}
				jb.tested.Add(tested)
			}
			en.done(pr)
		})
	}
	for i := range jobs {
		jb := &jobs[i]
		if jb.set != nil {
			continue
		}
		jb.set = FromBools(jb.cov)
		if en.cache != nil && !jb.stopped.Load() {
			en.cache.Put(jb.key, jb.set)
		}
	}
}
