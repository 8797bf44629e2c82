package castor

import (
	"sync"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
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
// ids out of the posting lists, constants stay symbol ids, literals dedupe
// by (relation, row), and names appear only when the finished clause is
// written out. What the plan fixes — the relations with a table, their
// value columns, each hop's join columns — is resolved once, so one
// builder serves every bottom clause of a learn. Per-clause state comes
// from a pool, so concurrent coverage workers share the builder.
type builder struct {
	prob    *ilp.Problem
	plan    *relstore.Plan
	syms    *logic.Symbols
	rels    []bottomRel // the plan schema's relations that have a table, in schema order
	nattrs  int         // distinct attribute names across rels
	scratch sync.Pool   // *bottomScratch
}

// bottomRel is one relation the construction scans and chases into.
type bottomRel struct {
	name  string
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
		br := bottomRel{name: rel.Name, table: table, attrs: make([]int32, rel.Arity()), value: make([]bool, rel.Arity())}
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

// bottomScratch is the mutable state of one construction.
type bottomScratch struct {
	entities map[int32]struct{}  // constants that become variables
	lits     map[rowRef]struct{} // tuples already in the clause
	body     []rowRef
	frontier []int32
	found    []int32
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
}

func (b *builder) getScratch() *bottomScratch {
	sc, _ := b.scratch.Get().(*bottomScratch)
	if sc == nil {
		sc = &bottomScratch{entities: make(map[int32]struct{}), lits: make(map[rowRef]struct{})}
	}
	clear(sc.entities)
	clear(sc.lits)
	sc.body, sc.frontier, sc.found, sc.unknown = sc.body[:0], sc.frontier[:0], sc.found[:0], sc.unknown[:0]
	if len(sc.rowSet) < b.nattrs {
		sc.rowVal = make([]int32, b.nattrs)
		sc.rowSet = make([]bool, b.nattrs)
	}
	return sc
}

// addEntity records v as a constant that becomes a variable, reporting
// whether it is new.
func (sc *bottomScratch) addEntity(v int32) bool {
	if _, ok := sc.entities[v]; ok {
		return false
	}
	sc.entities[v] = struct{}{}
	return true
}

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
	var chaseHops, scanned int64 // flushed into the run once, on return
	for _, t := range e.Args {
		if v := b.exampleID(sc, t.Name); sc.addEntity(v) {
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
				rows := b.rels[ri].table.AppendRowsContaining(sc.scan[:0], v)
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
		if params.MaxVars > 0 && len(sc.entities) >= params.MaxVars {
			break
		}
	}
	params.Obs.Add(obs.CINDChaseHops, chaseHops)
	params.Obs.Add(obs.CTuplesScanned, scanned)
	return b.clause(sc, e)
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
		if _, seen := sc.lits[it]; seen {
			continue
		}
		sc.lits[it] = struct{}{}
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
			joined := partner.AppendRowsWith(sc.join[:0], hop.dst, sc.joinVals)
			sc.join = joined
			if !storedProc {
				joined = append([]int32(nil), joined...)
			}
			*scanned += int64(len(joined))
			partner.AddINDExpansions(int64(len(joined)))
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
// e: the only place ids turn back into names.
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
