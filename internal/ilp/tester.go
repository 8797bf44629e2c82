package ilp

import (
	"math/bits"
	"slices"
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
// coverage.Engine: example sets shard over Parallelism workers,
// whole results are memoized by canonical clause form, candidate batches
// score concurrently with an early-termination bound, and the
// known-covered shortcut implements the paper's coverage caching (§7.5.4).
type Tester struct {
	prob   *Problem
	params Params
	run    *obs.Run // from params.Obs; nil observes nothing
	engine *coverage.Engine[*relstore.Prober]

	// SatFn, when set, overrides how subsumption-mode coverage builds an
	// example's saturation: the ground clause of names it returns is
	// compiled into the tester's space. It is for injecting hand-made
	// saturations; learners hand the tester a Builder instead.
	SatFn func(e logic.Atom) *logic.Clause

	// Subsumption mode only. bld builds every saturation and compiles it
	// straight from store ids into space: the classic builder of §6.1
	// unless UseBuilder replaced it. space is the id space saturations
	// compile into and candidates are prepared against: the instance's
	// constants plus the relation names, the target predicate and the
	// example constants the instance lacks. The space binds the frozen
	// instance's relations to their rows, so a saturation names the rows
	// it holds instead of copying them. Every distinct
	// example of the problem has one saturation entry, resolved in
	// NewTester: sats finds it by the address of the example's argument
	// array, read lock-free, so every worker of a beam batch finds and
	// shares one compiled target without mutex traffic, and a problem
	// example's probe hashes none of its names. ents holds the entries of
	// the problem's examples, and equal finds the one of an atom by its
	// names, so equal examples share one: open addressing over a hash of
	// the names, at most half full, each slot 1 + an index into ents. Both
	// are read-only once filled. byName, under nameMu and made when the
	// first one arrives, holds by Atom.Key the entries of other atoms and
	// of examples with no arguments, which have no address to be found by.
	bld    *Builder
	space  *subsume.Space
	sats   exampleTable[*satEntry]
	ents   []satEntry
	equal  []int32
	nameMu sync.Mutex
	byName map[string]*satEntry

	// Direct mode only: every problem example's constants resolved to the
	// instance's symbol ids once, in NewTester. ids finds an example's range
	// of the arena by the address of its argument array, as sats finds
	// saturations, so a test binds the head without a symbol lookup.
	ids   exampleTable[idRange]
	arena []int32
}

// idRange is one example's symbol ids: arena[off:off+n], n its arity.
type idRange struct{ off, n int32 }

// satEntry holds one example's compiled ground bottom clause. The Once
// guarantees exactly one compilation per example — concurrent probers for
// the same example wait for it instead of racing duplicate builds.
type satEntry struct {
	once sync.Once
	// ex is 1 + the index in Pos then Neg of the problem example the
	// entry is for, whose names equal finds it by; 0 outside the problem.
	ex    int32
	cd    *subsume.Compiled
	pred  string // the example's predicate and arity, for checking a hit
	arity int    // by address
}

// exampleTable maps the address of a problem example's argument array to
// a value: open addressing over a power-of-two table at most half full, so
// a probe costs a multiply and, usually, one slot load. The slots hold the
// arrays' pointers, which keeps them alive, and the collector never moves
// heap objects: an address in the table names one array for the tester's
// lifetime.
type exampleTable[V any] struct {
	slots []exampleSlot[V]
	shift uint // 64 − log2(len(slots))
}

type exampleSlot[V any] struct {
	args *logic.Term
	val  V
}

func newExampleTable[V any](n int) exampleTable[V] {
	bits := uint(3)
	for 1<<bits < 2*n {
		bits++
	}
	return exampleTable[V]{slots: make([]exampleSlot[V], 1<<bits), shift: 64 - bits}
}

func (x *exampleTable[V]) home(args *logic.Term) uint64 {
	return uint64(uintptr(unsafe.Pointer(args))) * 0x9E3779B97F4A7C15 >> x.shift
}

// put maps args to val unless args is mapped already.
func (x *exampleTable[V]) put(args *logic.Term, val V) {
	mask := uint64(len(x.slots) - 1)
	for i := x.home(args); ; i = (i + 1) & mask {
		if sl := &x.slots[i]; sl.args == nil || sl.args == args {
			if sl.args == nil {
				*sl = exampleSlot[V]{args: args, val: val}
			}
			return
		}
	}
}

// get returns the value mapped to args; ok is false when there is none.
func (x *exampleTable[V]) get(args *logic.Term) (val V, ok bool) {
	mask := uint64(len(x.slots) - 1)
	for i := x.home(args); ; i = (i + 1) & mask {
		switch sl := &x.slots[i]; sl.args {
		case args:
			return sl.val, true
		case nil:
			return val, false
		}
	}
}

// NewTester builds a tester for the problem. As a side effect it attaches
// params.Obs to the problem's instance, so the store's probes during this
// learner's run report their scans and per-relation statistics into the
// same registry (every learner builds its tester first).
func NewTester(prob *Problem, params Params) *Tester {
	prob.Instance.SetObs(params.Obs)
	// Learning only reads the store: freeze it now so the posting indexes
	// compact once, up front, instead of lazily under the first concurrent
	// probe.
	prob.Instance.Freeze()
	t := &Tester{prob: prob, params: params, run: params.Obs}
	// A coverage worker's probe is a store prober in direct mode and nil
	// in subsumption mode, whose tests do not probe the store.
	newProbe := func() *relstore.Prober { return nil }
	if params.CoverageMode == CoverageSubsumption {
		t.initSaturations()
	} else {
		t.resolveExamples()
		newProbe = prob.Instance.NewProber
	}
	var cache *coverage.Cache
	if !params.DisableCoverageCache {
		cache = coverage.NewCache(0)
	}
	t.engine = coverage.NewEngine(t.coverer, newProbe, params.Parallelism, cache, params.Obs)
	return t
}

// initSaturations builds the subsumption-mode id space, binds the frozen
// instance's rows and the classic builder to it, and resolves every
// example of the problem to its saturation entry, one per distinct
// example.
func (t *Tester) initSaturations() {
	prob := t.prob
	syms := prob.Instance.Symbols()
	sets := [][]logic.Atom{prob.Pos, prob.Neg}
	// The names the instance's symbols lack, in first-seen order: the
	// relation names, the target predicate and the few example constants
	// that are not instance symbols.
	var extra []string
	add := func(name string) {
		if _, ok := syms.Lookup(name); !ok && !slices.Contains(extra, name) {
			extra = append(extra, name)
		}
	}
	for _, rel := range prob.Instance.Schema().Relations() {
		add(rel.Name)
	}
	if prob.Target != nil {
		add(prob.Target.Name)
	}
	n := 0
	for _, examples := range sets {
		n += len(examples)
		for _, e := range examples {
			add(e.Pred)
			for _, a := range e.Args {
				add(a.Name)
			}
		}
	}
	t.space = subsume.NewSpace(syms, extra...)
	// The rows of a frozen instance hold its symbols' ids, which are the
	// space's base ids: the space was built over the symbol table as it is
	// now, and committed rows are never rewritten.
	for _, rel := range prob.Instance.Schema().Relations() {
		if table := prob.Instance.Table(rel.Name); table != nil {
			id, _ := t.space.Lookup(rel.Name)
			t.space.BindRows(id, rel.Arity(), table.Rows())
		}
	}
	t.UseBuilder(NewBuilder(prob, nil))
	t.sats = newExampleTable[*satEntry](n)
	t.ents = make([]satEntry, n)
	t.equal = make([]int32, 1<<bits.Len(uint(2*n)))
	k, i := int32(0), int32(0)
	for _, examples := range sets {
		for _, e := range examples {
			i++
			if len(e.Args) == 0 {
				t.nameEntry(e)
				continue
			}
			sl := t.equalSlot(e)
			if *sl == 0 {
				ent := &t.ents[k]
				ent.ex, ent.pred, ent.arity = i, e.Pred, len(e.Args)
				k++
				*sl = k
			}
			t.sats.put(&e.Args[0], &t.ents[*sl-1])
		}
	}
}

// equalSlot returns the slot of t.equal holding the entry of the problem
// example equal to e, or the empty slot where it goes.
func (t *Tester) equalSlot(e logic.Atom) *int32 {
	h := uint64(14695981039346656037) // FNV-1a, a NUL after each name
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h *= 1099511628211
	}
	mix(e.Pred)
	for _, a := range e.Args {
		mix(a.Name)
	}
	mask := uint64(len(t.equal) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &t.equal[i]
		if *sl == 0 {
			return sl
		}
		x := t.prob.Pos
		k := t.ents[*sl-1].ex - 1
		if n := int32(len(x)); k >= n {
			x, k = t.prob.Neg, k-n
		}
		if x[k].Pred == e.Pred && slices.Equal(x[k].Args, e.Args) {
			return sl
		}
	}
}

// resolveExamples resolves every problem example's constants to the
// instance's symbol ids for direct-mode tests, logic.UnknownSym for a
// constant the instance lacks.
func (t *Tester) resolveExamples() {
	syms := t.prob.Instance.Symbols()
	sets := [][]logic.Atom{t.prob.Pos, t.prob.Neg}
	n, args := 0, 0
	for _, examples := range sets {
		n += len(examples)
		for _, e := range examples {
			args += len(e.Args)
		}
	}
	t.ids = newExampleTable[idRange](n)
	t.arena = make([]int32, 0, args)
	for _, examples := range sets {
		for _, e := range examples {
			if len(e.Args) == 0 {
				continue
			}
			rg := idRange{off: int32(len(t.arena)), n: int32(len(e.Args))}
			for _, a := range e.Args {
				id, ok := syms.Lookup(a.Name)
				if !ok {
					id = logic.UnknownSym
				}
				t.arena = append(t.arena, id)
			}
			t.ids.put(&e.Args[0], rg)
		}
	}
}

// exampleIDs returns the resolved symbol ids of a problem example's
// arguments, or nil for any other atom. Ids depend only on the argument
// names, so an array registered at least as long as e.Args answers
// whatever predicate it is reused under.
func (t *Tester) exampleIDs(e logic.Atom) []int32 {
	if len(e.Args) == 0 {
		return nil
	}
	rg, ok := t.ids.get(&e.Args[0])
	if !ok || int(rg.n) < len(e.Args) {
		return nil
	}
	return t.arena[rg.off : rg.off+int32(len(e.Args))]
}

// Run returns the tester's instrumentation run (possibly nil), for
// learners that want to report through the same channel.
func (t *Tester) Run() *obs.Run { return t.run }

// UseBuilder makes subsumption-mode coverage build every saturation with
// b instead of the classic builder NewTester installs, compiling it
// straight from store ids into the tester's space. Castor hands over its
// IND-chasing builder, so coverage semantics stay schema independent.
// Call it before the first coverage test and before b is shared; in
// direct mode it does nothing.
func (t *Tester) UseBuilder(b *Builder) {
	if t.space != nil {
		b.compileInto(t.space, b.prob.Instance == t.prob.Instance)
		t.bld = b
	}
}

// Covers reports whether the clause covers the example. Testing many
// examples against one clause goes through the engine instead, which
// prepares the clause once.
func (t *Tester) Covers(c *logic.Clause, e logic.Atom) bool {
	return t.engine.Covers(c, e)
}

// coverer is the engine's CoverFunc: it prepares the clause once and
// returns its per-example test, safe for concurrent use on distinct
// probes.
func (t *Tester) coverer(c *logic.Clause) func(*relstore.Prober, logic.Atom) bool {
	pc := t.prepare(c)
	return func(p *relstore.Prober, e logic.Atom) bool {
		return t.covers(pc, p, nil, nil, e)
	}
}

// prepared is a clause prepared for coverage tests of itself and of its
// sub-clauses, each of which keeps the body literals of a mask, in order:
// a store query compiled from the clause in direct mode, a source prepared
// from it against the tester's space in subsumption mode. Read-only once
// made.
type prepared struct {
	q   *relstore.Query
	src *subsume.Source
}

// prepare prepares the clause for the tester's coverage mode.
func (t *Tester) prepare(c *logic.Clause) prepared {
	if t.params.CoverageMode != CoverageSubsumption {
		return prepared{q: t.prob.Instance.Compile(c)}
	}
	return prepared{src: t.space.Prepare(c)}
}

// covers reports whether the sub-clause of the prepared clause that keeps
// the body literals keep marks (the whole clause when keep is nil) covers
// the example, with the answer and the counts of preparing that sub-clause
// and testing it. Direct mode tests on the store prober p; subsumption
// mode probes the example's compiled saturation, deriving a sub-clause's
// source into sub.
func (t *Tester) covers(pc prepared, p *relstore.Prober, sub *subsume.Sub, keep []bool, e logic.Atom) bool {
	if pc.q != nil {
		return pc.q.CoversMask(p, e, t.exampleIDs(e), keep)
	}
	if keep == nil {
		return t.saturation(e).Probe(t.run, pc.src)
	}
	return t.saturation(e).ProbeSub(t.run, pc.src, keep, sub)
}

// singles runs single coverage tests outside any batch, as ARMG makes
// them, on one probe taken from the engine and published once, when done.
// Each test counts in coverage_tests as one Engine.Covers call does. Not
// safe for concurrent use.
type singles struct {
	t   *Tester
	p   *relstore.Prober
	sub subsume.Sub
}

func (t *Tester) singles() *singles { return &singles{t: t, p: t.engine.Probe()} }

// covers tests the sub-clause keep leaves of the prepared clause on e.
func (s *singles) covers(pc prepared, keep []bool, e logic.Atom) bool {
	s.t.run.Inc(obs.CCoverageTests)
	return s.t.covers(pc, s.p, &s.sub, keep, e)
}

// done publishes the tests' store statistics and gives the probe back.
func (s *singles) done() { s.t.engine.Done(s.p) }

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
		if t.SatFn != nil {
			ent.cd = t.space.Compile(t.SatFn(e))
		} else {
			ent.cd = t.bld.compile(e, t.params)
		}
	})
	if !built {
		t.run.Inc(obs.CSaturationHits)
	}
	return ent.cd
}

// satEntry finds the example's saturation entry: a table load by argument
// array address for the problem's examples, else the entry of an equal
// problem example, else a locked lookup by name. A hit by address must
// match the entry's predicate and arity: the array may be reused under
// another predicate or sliced shorter.
func (t *Tester) satEntry(e logic.Atom) *satEntry {
	if len(e.Args) > 0 {
		if ent, ok := t.sats.get(&e.Args[0]); ok && ent.pred == e.Pred && ent.arity == len(e.Args) {
			return ent
		}
		if k := *t.equalSlot(e); k > 0 {
			return &t.ents[k-1]
		}
	}
	return t.nameEntry(e)
}

// nameEntry returns the entry of the atom's Key, adding one if none exists.
func (t *Tester) nameEntry(e logic.Atom) *satEntry {
	k := e.Key()
	t.nameMu.Lock()
	defer t.nameMu.Unlock()
	if t.byName == nil {
		t.byName = make(map[string]*satEntry)
	}
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

// Fan runs job(0), …, job(n−1) on the coverage engine's rounds, one
// shard per job under the pprof phase and shard span label: on the
// calling goroutine alone at Parallelism 1, else on at most Parallelism
// goroutines, the caller included. The jobs must be independent; a job
// may test coverage itself. Generalize generates a beam round's ARMGs
// with it, each job writing its own result slot.
func (t *Tester) Fan(label string, n int, job func(i int)) {
	t.engine.Fan(label, n, job)
}

// ScoreBatch scores independent candidates concurrently on the coverage
// engine's workers. floor, unless coverage.NoBound, is a compression
// score (p−n) that candidates must strictly beat: ones that provably
// cannot are abandoned mid-scan and returned with Pruned set. keep > 0 is the caller's beam
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
