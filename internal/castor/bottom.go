package castor

import (
	"sync"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/subsume"
)

// Castor's bottom-clause construction (§7.1): classic saturation extended
// with IND chasing — whenever a tuple enters the clause, every tuple that
// joins with it through an IND of the (precompiled) plan enters in the same
// step, so the parts of a decomposed relation always travel together
// (Lemma 7.5). The stopping condition is a budget on distinct variables,
// which is invariant under (de)composition, instead of the schema-dependent
// depth bound.

// BottomClause builds the variablized bottom clause of example e.
func BottomClause(prob *ilp.Problem, plan *relstore.Plan, e logic.Atom, params ilp.Params) *logic.Clause {
	return ilp.Variablize(prob, GroundBottomClause(prob, plan, e, params))
}

// GroundBottomClause builds the ground bottom clause (saturation) of e with
// IND chasing.
//
// Unlike the classic construction, no per-relation recall cap applies: the
// cap truncates *asymmetrically* across (de)compositions (one bonds
// relation vs. a bSource/bTarget pair gets half the budget each), which
// would break Lemma 7.5 at the coverage level. The distinct-variable
// budget MaxVars — which is invariant under (de)composition — is the
// stopping condition, as in §7.1.
//
// When params.UseStoredProc is false, every query result is deep-copied
// before use: that is the data movement a client-server RDBMS API performs
// on every call, which the stored-procedure deployment of §7.5.2 avoids
// (together with recompiling the plan per call, handled by the learner).
func GroundBottomClause(prob *ilp.Problem, plan *relstore.Plan, e logic.Atom, params ilp.Params) *logic.Clause {
	return newBuilder(prob, plan).build(e, params, nil)
}

// builder constructs the ground bottom clauses of one plan over one
// instance in the store's id space: frontier scans and IND hops read row
// ids out of the posting lists, constants stay symbol ids, and literals
// dedupe by (relation, row). A learn's bottom clauses are written out in
// names; coverage saturations compile straight from the ids into the
// tester's subsumption space (compileInto). What the plan fixes — the
// relations with a table, their value columns, each hop's join columns —
// is resolved once, so one builder serves every bottom clause of a learn.
// Per-clause state comes from a pool, so concurrent coverage workers
// share the builder.
type builder struct {
	prob    *ilp.Problem
	plan    *relstore.Plan
	syms    *logic.Symbols
	rels    []bottomRel // the plan schema's relations that have a table, in schema order
	nattrs  int         // distinct attribute names across rels
	scratch sync.Pool   // *bottomScratch

	// The space saturations compile into, once compileInto has run:
	// instance symbol ids below baseLen are its ids too, and targetID is
	// the target predicate's id (-1 when the space lacks it).
	space    *subsume.Space
	baseLen  int32
	targetID int32
}

// bottomRel is one relation the construction scans and chases into.
type bottomRel struct {
	name  string
	id    int32 // the name's id in the builder's space; -1 when it lacks it
	table *relstore.Table
	attrs []int32 // per column: the attribute's index into the joined row
	value []bool  // per column: a value attribute, neither chased nor an entity
	hops  []bottomHop
}

// bottomHop is one IND hop out of a relation: partner rows whose dst
// columns hold the source row's src columns join it.
type bottomHop struct {
	to       int32 // partner index into builder.rels
	src, dst []int
	ind      string // the IND's rendering, for provenance
}

// rowRef is one tuple of the clause under construction: a relation index
// into builder.rels and a row id of its table.
type rowRef struct {
	rel int32
	row int32
}

// key is the tuple's key in the construction's literal set.
func (r rowRef) key() uint64 { return uint64(uint32(r.rel))<<32 | uint64(uint32(r.row)) }

func newBuilder(prob *ilp.Problem, plan *relstore.Plan) *builder {
	schema := plan.Schema()
	b := &builder{prob: prob, plan: plan, syms: prob.Instance.Symbols()}
	index := make(map[string]int32)
	attrIndex := make(map[string]int32)
	for _, rel := range schema.Relations() {
		table := prob.Instance.Table(rel.Name)
		if table == nil {
			continue
		}
		index[rel.Name] = int32(len(b.rels))
		br := bottomRel{name: rel.Name, id: -1, table: table, attrs: make([]int32, rel.Arity()), value: make([]bool, rel.Arity())}
		for pos, attr := range rel.Attrs {
			a, ok := attrIndex[attr]
			if !ok {
				a = int32(len(attrIndex))
				attrIndex[attr] = a
			}
			br.attrs[pos] = a
			br.value[pos] = prob.IsValueAttr(schema, attr)
		}
		b.rels = append(b.rels, br)
	}
	b.nattrs = len(attrIndex)
	for i := range b.rels {
		br := &b.rels[i]
		for _, hop := range plan.Partners(br.name) {
			to, ok := index[hop.Rel]
			if !ok {
				continue // no table to chase into
			}
			// One requirement per partner column; a column named twice keeps
			// its last source, as a column-keyed requirement map would.
			h := bottomHop{to: to, ind: hop.IND.String()}
			for k, dst := range hop.DstPos {
				if j := indexOf(h.dst, dst); j >= 0 {
					h.src[j] = hop.SrcPos[k]
					continue
				}
				h.dst = append(h.dst, dst)
				h.src = append(h.src, hop.SrcPos[k])
			}
			br.hops = append(br.hops, h)
		}
	}
	return b
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// compileInto readies the builder to compile saturations into space,
// resolving the relation names and the target predicate once. Call it
// before the builder is shared.
func (b *builder) compileInto(space *subsume.Space) {
	lookup := func(name string) int32 {
		if id, ok := space.Lookup(name); ok {
			return id
		}
		return -1
	}
	b.space, b.baseLen = space, space.BaseLen(b.syms)
	b.targetID = lookup(b.prob.Target.Name)
	for i := range b.rels {
		b.rels[i].id = lookup(b.rels[i].name)
	}
}

// bottomScratch is the mutable state of one construction.
type bottomScratch struct {
	entities idSet // constants that become variables
	lits     idSet // tuples already in the clause, by rowRef.key
	body     []rowRef
	frontier []int32
	found    []int32
	example  []int32  // the example's argument ids, as exampleID gives them
	unknown  []string // example constants the instance lacks; ids -2, -3, …
	queue    []rowRef
	scan     []int32 // frontier-scan result buffer
	join     []int32 // hop result buffer
	joinVals []int32
	// The joined row of the current chase: rowVal[a] holds attribute a's
	// value where rowSet[a]; touched lists the set attributes.
	rowVal  []int32
	rowSet  []bool
	touched []int32
	// tally collects the construction's store statistics, published once
	// at its end.
	tally *relstore.Tally
	// The finished clause in the space's ids, for compileIDs.
	headArgs, litPred, litOff, argv []int32
}

func (b *builder) getScratch() *bottomScratch {
	sc, _ := b.scratch.Get().(*bottomScratch)
	if sc == nil {
		sc = &bottomScratch{tally: b.prob.Instance.NewTally()}
	}
	sc.entities.reset()
	sc.lits.reset()
	sc.body, sc.frontier, sc.found = sc.body[:0], sc.frontier[:0], sc.found[:0]
	sc.example, sc.unknown = sc.example[:0], sc.unknown[:0]
	if len(sc.rowSet) < b.nattrs {
		sc.rowVal = make([]int32, b.nattrs)
		sc.rowSet = make([]bool, b.nattrs)
	}
	return sc
}

// addEntity records v as a constant that becomes a variable, reporting
// whether it is new.
func (sc *bottomScratch) addEntity(v int32) bool { return sc.entities.add(uint64(uint32(v))) }

// exampleID interns one example constant: its symbol id, or a distinct
// negative id below logic.UnknownSym when the instance lacks it, so that
// distinct unknown constants stay distinct entities while every probe for
// them matches no row.
func (b *builder) exampleID(sc *bottomScratch, name string) int32 {
	if id, ok := b.syms.Lookup(name); ok {
		return id
	}
	for k, u := range sc.unknown {
		if u == name {
			return -2 - int32(k)
		}
	}
	sc.unknown = append(sc.unknown, name)
	return -1 - int32(len(sc.unknown))
}

// build constructs the ground bottom clause of e. A non-nil indsFired
// collects, per IND (by its String rendering), how many partner tuples
// its hops pulled into the clause. Collection is observation only — the
// constructed clause is identical either way.
func (b *builder) build(e logic.Atom, params ilp.Params, indsFired map[string]int64) *logic.Clause {
	sc := b.getScratch()
	defer b.scratch.Put(sc)
	b.saturate(sc, e, params, indsFired)
	return b.clause(sc, e)
}

// compile constructs the ground bottom clause of e and compiles it into
// the space compileInto set: the clause space.Compile(b.build(e, …))
// compiles, built without writing out or looking up a name of the
// instance.
func (b *builder) compile(e logic.Atom, params ilp.Params) *subsume.Compiled {
	sc := b.getScratch()
	defer b.scratch.Put(sc)
	b.saturate(sc, e, params, nil)
	if cd := b.compileIDs(sc, e); cd != nil {
		return cd
	}
	return b.space.Compile(b.clause(sc, e))
}

// saturate runs the construction of e's ground bottom clause into sc.
func (b *builder) saturate(sc *bottomScratch, e logic.Atom, params ilp.Params, indsFired map[string]int64) {
	var chaseHops, scanned int64 // flushed into the run once, on return
	for _, t := range e.Args {
		v := b.exampleID(sc, t.Name)
		sc.example = append(sc.example, v)
		if sc.addEntity(v) {
			sc.frontier = append(sc.frontier, v)
		}
	}
	for iter := 0; len(sc.frontier) > 0; iter++ {
		if params.Depth > 0 && iter >= params.Depth {
			break
		}
		chase := sc.frontier
		sc.found = sc.found[:0]
		// Scans run relation-major, constant-minor, and each result folds
		// into the clause before the next scan: that order is the literal
		// order.
		for ri := range b.rels {
			for _, v := range chase {
				rows := b.rels[ri].table.AppendRowsContaining(sc.scan[:0], v, sc.tally)
				sc.scan = rows
				if !params.UseStoredProc {
					rows = append([]int32(nil), rows...)
				}
				scanned += int64(len(rows))
				for _, r := range rows {
					b.addWithChase(sc, rowRef{int32(ri), r}, params.UseStoredProc, &chaseHops, &scanned, indsFired)
				}
			}
		}
		sc.frontier, sc.found = sc.found, chase
		// §7.1 stopping condition: stop expanding once the distinct-variable
		// budget is reached. The count is schema independent because
		// corresponding clauses over (de)compositions share their variables.
		if params.MaxVars > 0 && sc.entities.n >= params.MaxVars {
			break
		}
	}
	sc.tally.Publish()
	params.Obs.Add(obs.CINDChaseHops, chaseHops)
	params.Obs.Add(obs.CTuplesScanned, scanned)
}

// addWithChase inserts the tuple's literal and transitively chases the
// plan's IND hops to pull in the partner tuples that belong to the same
// joined row (§7.1): the chase tracks the accumulated row (attribute →
// value, natural-join convention) and only follows partners that agree
// with it on every shared attribute. Without that restriction a
// one-to-many reverse hop (e.g. genre → every movie of that genre) floods
// the clause with tuples from *other* joined rows — those are reached by
// later frontier iterations instead, on every schema variant alike.
func (b *builder) addWithChase(sc *bottomScratch, start rowRef, storedProc bool, chaseHops, scanned *int64, indsFired map[string]int64) {
	for _, a := range sc.touched {
		sc.rowSet[a] = false
	}
	sc.touched = sc.touched[:0]
	sc.queue = append(sc.queue[:0], start)
	for next := 0; next < len(sc.queue); next++ {
		it := sc.queue[next]
		br := &b.rels[it.rel]
		vals := br.table.Row(it.row)
		if sc.conflicts(br.attrs, vals) {
			continue
		}
		if !sc.lits.add(it.key()) {
			continue
		}
		for pos, a := range br.attrs {
			if !sc.rowSet[a] {
				sc.rowSet[a] = true
				sc.touched = append(sc.touched, a)
			}
			sc.rowVal[a] = vals[pos]
		}
		sc.body = append(sc.body, it)
		for pos, v := range vals {
			if !br.value[pos] && sc.addEntity(v) {
				sc.found = append(sc.found, v)
			}
		}
		for _, hop := range br.hops {
			partner := b.rels[hop.to].table
			*chaseHops++
			sc.joinVals = sc.joinVals[:0]
			for _, c := range hop.src {
				sc.joinVals = append(sc.joinVals, vals[c])
			}
			joined := partner.AppendRowsWith(sc.join[:0], hop.dst, sc.joinVals, sc.tally)
			sc.join = joined
			if !storedProc {
				joined = append([]int32(nil), joined...)
			}
			*scanned += int64(len(joined))
			sc.tally.AddINDExpansions(partner, int64(len(joined)))
			if len(joined) > maxINDJoin {
				joined = joined[:maxINDJoin]
			}
			if indsFired != nil && len(joined) > 0 {
				indsFired[hop.ind] += int64(len(joined))
			}
			for _, r := range joined {
				sc.queue = append(sc.queue, rowRef{hop.to, r})
			}
		}
	}
}

// conflicts reports whether a tuple disagrees with the joined row on some
// attribute the row already holds.
func (sc *bottomScratch) conflicts(attrs, vals []int32) bool {
	for pos, a := range attrs {
		if sc.rowSet[a] && sc.rowVal[a] != vals[pos] {
			return true
		}
	}
	return false
}

// clause writes the constructed literals out as a ground clause with head
// e: the only place ids turn back into names, which a coverage saturation
// reaches only when compileIDs cannot compile it.
func (b *builder) clause(sc *bottomScratch, e logic.Atom) *logic.Clause {
	n := 0
	for _, it := range sc.body {
		n += len(b.rels[it.rel].attrs)
	}
	terms := make([]logic.Term, n)
	c := &logic.Clause{Head: e.Clone(), Body: make([]logic.Atom, len(sc.body))}
	for k, it := range sc.body {
		br := &b.rels[it.rel]
		args := terms[:len(br.attrs):len(br.attrs)]
		terms = terms[len(br.attrs):]
		for pos, v := range br.table.Row(it.row) {
			args[pos] = logic.Const(b.syms.Name(v))
		}
		c.Body[k] = logic.Atom{Pred: br.name, Args: args}
	}
	return c
}

// compileIDs compiles the construction in sc into the builder's space
// straight from its ids: instance symbols are the space's base ids, the
// relation names and the target were resolved by compileInto, and only
// the example's constants the instance lacks are looked up, once per
// example. The target equals space.Compile(b.clause(sc, e)). It returns
// nil when that clause would hold a name outside the space (an atom from
// outside the problem), for the caller to compile the clause of names.
func (b *builder) compileIDs(sc *bottomScratch, e logic.Atom) *subsume.Compiled {
	head := b.targetID
	if e.Pred != b.prob.Target.Name {
		head = -1
		if id, ok := b.space.Lookup(e.Pred); ok {
			head = id
		}
	}
	if head < 0 {
		return nil
	}
	sc.headArgs = sc.headArgs[:0]
	for k, t := range e.Args {
		if t.IsVar {
			return nil // compiles as a skolem constant, which the space lacks
		}
		id := sc.example[k]
		if uint32(id) >= uint32(b.baseLen) {
			var ok bool
			if id, ok = b.space.Lookup(t.Name); !ok {
				return nil
			}
		}
		sc.headArgs = append(sc.headArgs, id)
	}
	sc.litPred, sc.litOff, sc.argv = sc.litPred[:0], append(sc.litOff[:0], 0), sc.argv[:0]
	for _, it := range sc.body {
		br := &b.rels[it.rel]
		if br.id < 0 {
			return nil
		}
		sc.litPred = append(sc.litPred, br.id)
		for _, v := range br.table.Row(it.row) {
			if uint32(v) >= uint32(b.baseLen) {
				return nil
			}
			sc.argv = append(sc.argv, v)
		}
		sc.litOff = append(sc.litOff, int32(len(sc.argv)))
	}
	return b.space.CompileGround(head, sc.headArgs, sc.litPred, sc.litOff, sc.argv)
}

// idSet is a set of 64-bit keys for one construction at a time: an
// open-addressed table whose slots count only when stamped with the
// current generation, so emptying it is one increment. It grows with the
// largest construction it has held, not with the store.
type idSet struct {
	slots []idSlot
	gen   uint32
	n     int
}

type idSlot struct {
	key uint64
	gen uint32
}

// reset empties the set.
func (s *idSet) reset() {
	s.n = 0
	s.gen++
	if s.gen == 0 {
		// Wrapped: stamps from 2^32 resets ago would read as current.
		clear(s.slots)
		s.gen = 1
	}
}

// add inserts k, reporting whether it was absent.
func (s *idSet) add(k uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := mix64(k) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			*sl = idSlot{key: k, gen: s.gen}
			s.n++
			return true
		}
		if sl.key == k {
			return false
		}
	}
}

// grow doubles the table, keeping the current generation's keys.
func (s *idSet) grow() {
	old := s.slots
	s.slots = make([]idSlot, max(64, 2*len(old)))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.gen != s.gen {
			continue
		}
		i := mix64(sl.key) & mask
		for s.slots[i].gen == s.gen {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// mix64 spreads a key's bits over the low ones a table mask keeps.
func mix64(k uint64) uint64 {
	k *= 0x9E3779B97F4A7C15
	return k ^ k>>32
}
