package ilp

import (
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/subsume"
)

// Bottom-clause construction: starting from the example's constants,
// iteratively pull in every tuple containing a known constant. The ground
// result is the *saturation* used by Golem and by subsumption-based
// coverage testing; the variablized one is the bottom clause ⊥e that
// ProGolem, Progol and Castor generalize or search. One Builder serves
// every learner, with one of two policies, picked by its plan:
//
//   - No plan: the classic construction of §6.1. Depth bounds the
//     iterations (none run when it is ≤ 0) and MaxRecall caps the new
//     literals of one relation per iteration, checked before each constant
//     and each tuple.
//   - A plan: Castor's construction of §7.1. Whenever a tuple enters the
//     clause, every tuple that joins with it through an IND of the plan
//     enters in the same step, so the parts of a decomposed relation always
//     travel together (Lemma 7.5). The stop is the distinct-variable budget
//     MaxVars, which is invariant under (de)composition, and Depth bounds
//     the iterations only when positive. No recall cap applies: it
//     truncates asymmetrically across (de)compositions (one bonds relation
//     vs. a bSource/bTarget pair gets half the budget each), which would
//     break Lemma 7.5 at the coverage level. When UseStoredProc is false,
//     every query result is deep-copied before use: the data movement a
//     client-server RDBMS API performs on every call, which the
//     stored-procedure deployment of §7.5.2 avoids (together with
//     recompiling the plan per call, handled by the learner).
//
// Both scan relation-major, constant-minor, and constants at
// value-attribute positions (Problem.ValueAttrs) stay constants and are
// not chased — the role of '#' mode declarations.

// Saturation builds the classic ground bottom clause of example e relative
// to the problem's instance: head = e, body = all ground literals reachable
// within depth iterations, at most maxRecall new ones per relation and
// iteration (0: no cap).
func Saturation(prob *Problem, e logic.Atom, depth, maxRecall int) *logic.Clause {
	return NewBuilder(prob, nil).Build(e, Params{Depth: depth, MaxRecall: maxRecall}, nil)
}

// BottomClause builds the variablized bottom clause ⊥e: the saturation with
// every constant replaced by a variable, except constants at
// value-attribute positions. The same constant maps to the same variable
// throughout (the inverse-entailment mapping of §6.1).
func BottomClause(prob *Problem, e logic.Atom, depth, maxRecall int) *logic.Clause {
	return Variablize(prob, Saturation(prob, e, depth, maxRecall))
}

// maxINDJoin caps how many partner tuples one tuple may pull in through a
// single IND hop (the paper uses 10).
const maxINDJoin = 10

// Builder constructs the ground bottom clauses of one instance in the
// store's id space: frontier scans and IND hops read row ids out of the
// posting lists, constants stay symbol ids, and literals dedupe by
// (relation, row). Bottom clauses are written out in names (Build);
// coverage saturations compile straight from the ids into a tester's
// subsumption space (Tester.UseBuilder). What the policy fixes — the
// relations with a table, their value columns, each hop's join columns —
// is resolved once, so one builder serves every bottom clause of a learn.
// Per-clause state comes from a pool, so concurrent coverage workers
// share the builder.
type Builder struct {
	prob    *Problem
	plan    *relstore.Plan // nil: the classic policy
	syms    *logic.Symbols
	rels    []bottomRel // the schema's relations that have a table, in schema order
	nattrs  int         // distinct attribute names across rels
	scratch sync.Pool   // *bottomScratch

	// The space saturations compile into, once compileInto has run:
	// instance symbol ids below baseLen are its ids too, targetID is the
	// target predicate's id (-1 when the space lacks it), and rows reports
	// that the space binds this builder's tables' rows under their
	// relations' ids, for compileIDs to name.
	space    *subsume.Space
	baseLen  int32
	targetID int32
	rows     bool
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
	to       int32 // partner index into Builder.rels
	src, dst []int
	ind      string // the IND's rendering, for provenance
}

// rowRef is one tuple of the clause under construction: a relation index
// into Builder.rels and a row id of its table.
type rowRef struct {
	rel int32
	row int32
}

// key is the tuple's key in the construction's literal set.
func (r rowRef) key() uint64 { return uint64(uint32(r.rel))<<32 | uint64(uint32(r.row)) }

// NewBuilder returns a builder over the problem's instance: Castor's
// IND-chasing construction over the plan's schema when plan is non-nil,
// else the classic construction over the instance's schema.
func NewBuilder(prob *Problem, plan *relstore.Plan) *Builder {
	schema := prob.Instance.Schema()
	if plan != nil {
		schema = plan.Schema()
	}
	b := &Builder{prob: prob, plan: plan, syms: prob.Instance.Symbols()}
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
	if plan == nil {
		return b
	}
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
				if j := slices.Index(h.dst, dst); j >= 0 {
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

// Plan returns the plan whose INDs the builder chases; nil for the
// classic policy.
func (b *Builder) Plan() *relstore.Plan { return b.plan }

// compileInto readies the builder to compile saturations into space,
// resolving the relation names and the target predicate once; rows reports
// that the space binds the rows of the builder's tables. Call it before
// the builder is shared.
func (b *Builder) compileInto(space *subsume.Space, rows bool) {
	lookup := func(name string) int32 {
		if id, ok := space.Lookup(name); ok {
			return id
		}
		return -1
	}
	b.space, b.baseLen, b.rows = space, space.BaseLen(b.syms), rows
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
	// The finished clause for compileIDs: the head's ids in the space, and
	// per body literal its relation's id and its row.
	headArgs, preds, rows []int32
}

func (b *Builder) getScratch() *bottomScratch {
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
func (b *Builder) exampleID(sc *bottomScratch, name string) int32 {
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

// Build constructs the ground bottom clause of e. A non-nil indsFired
// collects, per IND (by its String rendering), how many partner tuples
// its hops pulled into the clause. Collection is observation only — the
// constructed clause is identical either way.
func (b *Builder) Build(e logic.Atom, params Params, indsFired map[string]int64) *logic.Clause {
	sc := b.getScratch()
	defer b.scratch.Put(sc)
	b.saturate(sc, e, params, indsFired)
	return b.clause(sc, e)
}

// compile constructs the ground bottom clause of e and compiles it into
// the space compileInto set: the clause space.Compile(b.Build(e, …))
// compiles, built without writing out or looking up a name of the
// instance.
func (b *Builder) compile(e logic.Atom, params Params) *subsume.Compiled {
	sc := b.getScratch()
	defer b.scratch.Put(sc)
	b.saturate(sc, e, params, nil)
	if cd := b.compileIDs(sc, e); cd != nil {
		return cd
	}
	return b.space.Compile(b.clause(sc, e))
}

// saturate runs the construction of e's ground bottom clause into sc.
func (b *Builder) saturate(sc *bottomScratch, e logic.Atom, params Params, indsFired map[string]int64) {
	depth, recall, maxVars, copyRows := params.Depth, params.MaxRecall, 0, false
	if b.plan != nil {
		recall, maxVars, copyRows = 0, params.MaxVars, !params.UseStoredProc
		if depth <= 0 {
			depth = math.MaxInt
		}
	}
	var chaseHops, scanned int64 // flushed into the run once, on return
	for _, t := range e.Args {
		v := b.exampleID(sc, t.Name)
		sc.example = append(sc.example, v)
		if sc.addEntity(v) {
			sc.frontier = append(sc.frontier, v)
		}
	}
	for iter := 0; iter < depth && len(sc.frontier) > 0; iter++ {
		chase := sc.frontier
		sc.found = sc.found[:0]
		// Scans run relation-major, constant-minor, and each result folds
		// into the clause before the next scan: that order is the literal
		// order.
		for ri := range b.rels {
			added := 0 // new literals of this relation in this iteration
			for _, v := range chase {
				if recall > 0 && added >= recall {
					break
				}
				rows := b.rels[ri].table.AppendRowsContaining(sc.scan[:0], v, sc.tally)
				sc.scan = rows
				if copyRows {
					rows = append([]int32(nil), rows...)
				}
				scanned += int64(len(rows))
				for _, r := range rows {
					if recall > 0 && added >= recall {
						break
					}
					n := len(sc.body)
					b.addWithChase(sc, rowRef{int32(ri), r}, copyRows, &chaseHops, &scanned, indsFired)
					if len(sc.body) > n {
						added++
					}
				}
			}
		}
		sc.frontier, sc.found = sc.found, chase
		// §7.1 stopping condition: stop expanding once the distinct-variable
		// budget is reached. The count is schema independent because
		// corresponding clauses over (de)compositions share their variables.
		if maxVars > 0 && sc.entities.n >= maxVars {
			break
		}
	}
	sc.tally.Publish(params.Obs)
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
// later frontier iterations instead, on every schema variant alike. The
// classic policy has no hops, so only the tuple itself enters, if new.
func (b *Builder) addWithChase(sc *bottomScratch, start rowRef, copyRows bool, chaseHops, scanned *int64, indsFired map[string]int64) {
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
			if copyRows {
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
func (b *Builder) clause(sc *bottomScratch, e logic.Atom) *logic.Clause {
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
// straight from its ids: the body literals are the rows the construction
// found, which the space binds (Space.CompileRows), the relation names and
// the target were resolved by compileInto, and only the example's
// constants the instance lacks are looked up, once per example. The
// target equals space.Compile(b.clause(sc, e)). It returns nil when the
// space binds no rows of the builder's tables, or that clause would hold a
// name outside the space (an atom from outside the problem), for the
// caller to compile the clause of names.
func (b *Builder) compileIDs(sc *bottomScratch, e logic.Atom) *subsume.Compiled {
	if !b.rows {
		return nil
	}
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
	sc.preds, sc.rows = sc.preds[:0], sc.rows[:0]
	for _, it := range sc.body {
		sc.preds = append(sc.preds, b.rels[it.rel].id)
		sc.rows = append(sc.rows, it.row)
	}
	return b.space.CompileRows(head, sc.headArgs, sc.preds, sc.rows)
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

// Variablize maps the constants of a ground clause to variables V0, V1, …
// in first-occurrence order (head first), keeping constants at
// value-attribute positions. The same constant always maps to the same
// variable; a constant that appears both at a value position and an entity
// position is variablized only at the entity positions.
func Variablize(prob *Problem, ground *logic.Clause) *logic.Clause {
	schema := prob.Instance.Schema()
	varOf := make(map[string]logic.Term)
	next := 0
	mapTerm := func(v string) logic.Term {
		t, ok := varOf[v]
		if !ok {
			t = logic.Var("V" + strconv.Itoa(next))
			next++
			varOf[v] = t
		}
		return t
	}
	out := &logic.Clause{}
	// Head: every position becomes a variable (head variables have depth 0).
	headArgs := make([]logic.Term, len(ground.Head.Args))
	for i, a := range ground.Head.Args {
		headArgs[i] = mapTerm(a.Name)
	}
	out.Head = logic.NewAtom(ground.Head.Pred, headArgs...)
	for _, lit := range ground.Body {
		rel, ok := schema.Relation(lit.Pred)
		args := make([]logic.Term, len(lit.Args))
		for i, a := range lit.Args {
			if ok && prob.IsValueAttr(schema, rel.Attrs[i]) {
				args[i] = logic.Const(a.Name)
				continue
			}
			args[i] = mapTerm(a.Name)
		}
		out.Body = append(out.Body, logic.NewAtom(lit.Pred, args...))
	}
	return out
}
