package ilp

import (
	"sync"
	"unsafe"

	"repro/internal/coverage"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
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
	engine *coverage.Engine[*probe]

	// SatFn overrides how ground bottom clauses are built for
	// subsumption-mode coverage; when nil the classic saturation of §6.1
	// is used, unless CompileSat is set.
	SatFn func(e logic.Atom) *logic.Clause
	// CompileSat, when set and SatFn is not, builds and compiles an
	// example's saturation straight into the tester's Space, with no
	// ground clause of names in between. Castor installs its IND-chasing
	// construction here so that coverage semantics stay schema
	// independent.
	CompileSat func(e logic.Atom) *subsume.Compiled

	// Subsumption mode only. space is the id space saturations compile
	// into and candidates are prepared against: the instance's constants
	// plus the relation names, the target predicate and the example
	// constants the instance lacks. Every distinct example of the problem
	// has one saturation entry, resolved in NewTester: sats finds it by
	// the address of the example's argument array, read lock-free, so
	// every worker of a beam batch finds and shares one compiled target
	// without mutex traffic, and a problem example's probe hashes none of
	// its names. byName, under nameMu, holds every entry by Atom.Key: equal
	// examples share one, and any other atom finds or adds its own there.
	space  *subsume.Space
	sats   exampleTable
	nameMu sync.Mutex
	byName map[string]*satEntry
}

// satEntry holds one example's compiled ground bottom clause. The Once
// guarantees exactly one compilation per example — concurrent probers for
// the same example wait for it instead of racing duplicate builds.
type satEntry struct {
	once  sync.Once
	cd    *subsume.Compiled
	pred  string // the example's predicate and arity, for checking a hit
	arity int    // by address
}

// exampleTable maps the address of a problem example's argument array to
// its saturation entry: open addressing over a power-of-two table at most
// half full, so a probe costs a multiply and, usually, one slot load. The
// slots hold the arrays' pointers, which keeps them alive, and the
// collector never moves heap objects: an address in the table names one
// array for the tester's lifetime.
type exampleTable struct {
	slots []exampleSlot
	shift uint // 64 − log2(len(slots))
}

type exampleSlot struct {
	args *logic.Term
	ent  *satEntry
}

func newExampleTable(n int) exampleTable {
	bits := uint(3)
	for 1<<bits < 2*n {
		bits++
	}
	return exampleTable{slots: make([]exampleSlot, 1<<bits), shift: 64 - bits}
}

func (x *exampleTable) home(args *logic.Term) uint64 {
	return uint64(uintptr(unsafe.Pointer(args))) * 0x9E3779B97F4A7C15 >> x.shift
}

// put maps args to ent unless args is mapped already.
func (x *exampleTable) put(args *logic.Term, ent *satEntry) {
	mask := uint64(len(x.slots) - 1)
	for i := x.home(args); ; i = (i + 1) & mask {
		if sl := &x.slots[i]; sl.args == nil || sl.args == args {
			if sl.args == nil {
				*sl = exampleSlot{args: args, ent: ent}
			}
			return
		}
	}
}

// get returns the entry mapped to args, or nil.
func (x *exampleTable) get(args *logic.Term) *satEntry {
	mask := uint64(len(x.slots) - 1)
	for i := x.home(args); ; i = (i + 1) & mask {
		switch sl := &x.slots[i]; sl.args {
		case args:
			return sl.ent
		case nil:
			return nil
		}
	}
}

// probe is one coverage worker's state: the store prober direct-mode
// tests run on (nil in subsumption mode) and the tests run since the last
// Publish.
type probe struct {
	run   *obs.Run
	store *relstore.Prober
	tests int64
}

// Publish hands the worker's store statistics and test count on.
func (p *probe) Publish() {
	if p.store != nil {
		p.store.Publish()
	}
	if p.tests > 0 {
		p.run.Add(obs.CCoverageTests, p.tests)
		p.tests = 0
	}
}

// NewTester builds a tester for the problem. As a side effect it attaches
// params.Obs to the problem's instance, so store-level scans during this
// learner's run report into the same registry, and registers the
// instance's per-relation access statistics as the registry's store
// source, so run reports expose them (every learner builds
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
	t.engine = coverage.NewEngine(t.coverer, t.newProbe, params.Parallelism, cache, params.Obs)
	return t
}

// newProbe makes one coverage worker's probe state.
func (t *Tester) newProbe() *probe {
	p := &probe{run: t.run}
	if t.params.CoverageMode != CoverageSubsumption {
		p.store = t.prob.Instance.NewProber()
	}
	return p
}

// initSaturations builds the subsumption-mode id space and resolves every
// example of the problem to its saturation entry, one per distinct
// example.
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
	t.sats = newExampleTable(len(examples))
	t.byName = make(map[string]*satEntry, len(examples))
	for _, e := range examples {
		if len(e.Args) > 0 {
			t.sats.put(&e.Args[0], t.nameEntry(e))
		}
	}
}

// Run returns the tester's instrumentation run (possibly nil), for
// learners that want to report through the same channel.
func (t *Tester) Run() *obs.Run { return t.run }

// Space returns the id space subsumption-mode saturations compile into
// (nil in direct mode): what a CompileSat function must compile into.
func (t *Tester) Space() *subsume.Space { return t.space }

// Covers reports whether the clause covers the example. Testing many
// examples against one clause goes through the engine instead, which
// prepares the clause once.
func (t *Tester) Covers(c *logic.Clause, e logic.Atom) bool {
	return t.engine.Covers(c, e)
}

// coverer is the engine's CoverFunc: it prepares the clause once and
// returns its per-example test, safe for concurrent use on distinct
// probes. Direct mode compiles the clause into a store query and tests on
// the worker's store prober; subsumption mode prepares it against the
// tester's space and probes each example's compiled saturation with it.
func (t *Tester) coverer(c *logic.Clause) func(*probe, logic.Atom) bool {
	if t.params.CoverageMode != CoverageSubsumption {
		q := t.prob.Instance.Compile(c)
		return func(p *probe, e logic.Atom) bool {
			p.tests++
			return q.CoversWith(p.store, e)
		}
	}
	src := t.space.Prepare(c)
	return func(p *probe, e logic.Atom) bool {
		p.tests++
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
		switch {
		case t.SatFn != nil:
			ent.cd = t.space.Compile(t.SatFn(e))
		case t.CompileSat != nil:
			ent.cd = t.CompileSat(e)
		default:
			ent.cd = t.space.Compile(Saturation(t.prob, e, t.params.Depth, t.params.MaxRecall))
		}
	})
	if !built {
		t.run.Inc(obs.CSaturationHits)
	}
	return ent.cd
}

// satEntry finds the example's saturation entry: a table load by argument
// array address for the problem's examples, else a locked lookup by name.
// A hit by address must match the entry's predicate and arity: the array
// may be reused under another predicate or sliced shorter.
func (t *Tester) satEntry(e logic.Atom) *satEntry {
	if len(e.Args) > 0 {
		if ent := t.sats.get(&e.Args[0]); ent != nil && ent.pred == e.Pred && ent.arity == len(e.Args) {
			return ent
		}
	}
	return t.nameEntry(e)
}

// nameEntry returns the entry of the atom's Key, adding one if none exists.
func (t *Tester) nameEntry(e logic.Atom) *satEntry {
	k := e.Key()
	t.nameMu.Lock()
	defer t.nameMu.Unlock()
	ent := t.byName[k]
	if ent == nil {
		ent = &satEntry{pred: e.Pred, arity: len(e.Args)}
		t.byName[k] = ent
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

// CoversAtMost reports whether the clause covers at most limit of the
// examples: Count(c, examples, known) <= limit, decided without the tests
// that follow the one pushing the count past limit. known works as in
// CoveredSet and counts without being tested.
func (t *Tester) CoversAtMost(c *logic.Clause, examples []logic.Atom, known *coverage.Bitset, limit int) bool {
	return t.engine.CoversAtMost(c, examples, t.knowns(known), limit)
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
