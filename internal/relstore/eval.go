package relstore

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Conjunctive-query evaluation: example coverage and its witnesses, and
// full clause/definition evaluation (the hR(I) of the paper).
//
// There is one solver, and it runs on compiled queries. Compile interns a
// clause once against the instance's symbol table: variables become dense
// slots, constants become symbol ids (logic.UnknownSym when the instance
// never saw them), and a body atom over a missing relation, with the wrong
// arity or with a constant no row holds is dead and makes the whole query
// unsatisfiable up front. Testing a ground example then binds the head
// slots and backtracks over a logic.Subst (an int32 slot array with a
// trail), enumerating candidate rows as row ids straight out of the CSR
// postings (a point probe borrows the posting slice without copying). A
// masked test (CoversMask) tests a sub-clause, the body atoms of a keep
// mask, on the same compiled query: the other atoms start the search as
// matched, and a dead atom fails only a test that keeps it.
// Search state and store statistics live on a Prober, which a coverage
// worker owns and publishes once per run of tests, so a steady-state test
// allocates nothing, touches no map and no string beyond the example's
// own constants, and writes no shared counter. The Instance query methods
// (CoversExample, CoverageWitness, EvalClause, …) are thin wrappers that
// compile and run the same solver on a pooled prober, turning symbol ids
// back into names only at a solution.
//
// Literal choice is dynamic: every search node picks the unmatched atom
// with the fewest candidate rows under the current bindings (first on
// ties), probes its most selective bound column, and scans rows in
// ascending row order, so enumeration order — and every access statistic
// — is a deterministic function of the clause, the bindings and the
// store.
//
// Evaluation is resource-bounded: conjunctive-query matching is NP-hard in
// the clause length, and bottom-up learners produce long clauses, so each
// top-level call explores at most the instance's evaluation budget of
// search nodes and then reports "no (further) match" — the same cutoff
// discipline subsumption engines like Resumer2 apply — counting the call
// once in eval_budget_exhausted. The default budget is far beyond what any
// non-pathological clause needs.

// DefaultEvalBudget is the default per-call search-node budget.
const DefaultEvalBudget = 1 << 21

// SetEvalBudget overrides the per-call search budget (0 restores the
// default).
func (i *Instance) SetEvalBudget(nodes int) {
	if nodes <= 0 {
		nodes = DefaultEvalBudget
	}
	i.evalBudget = nodes
}

func (i *Instance) budget() int {
	if i.evalBudget <= 0 {
		return DefaultEvalBudget
	}
	return i.evalBudget
}

// Query is a clause compiled against one instance. It is immutable after
// compilation and safe for concurrent tests; it stays valid until the
// instance is next modified.
type Query struct {
	inst  *Instance
	pred  string // head predicate
	head  []headArg
	atoms []queryAtom
	vars  *logic.VarSlots // slot → variable name
	unsat bool            // some body atom can match no row
}

// headArg is one compiled head position: a constant (slot < 0), the first
// occurrence of a variable (prev < 0), or a repeat of the variable first
// seen at head position prev. Repeats compare the example's names, so two
// distinct constants the instance has never seen stay distinct.
type headArg struct {
	name string
	slot int32
	prev int
}

// queryAtom is one compiled body atom. est and col are its candidate
// estimate from the constant columns alone: the fewest rows any constant
// column admits and that column, or the table size and -1 when no column
// is constant. A dead atom, one that can match no row, has est 0, and t
// is nil when its relation is missing or has another arity.
type queryAtom struct {
	t      *Table
	args   []logic.ITerm
	est    int
	col    int
	nconst int
}

// Compile interns the clause against the instance for repeated coverage
// tests: Covers then tests one example at a time without recompiling.
func (i *Instance) Compile(c *logic.Clause) *Query {
	q := &Query{inst: i, pred: c.Head.Pred, vars: logic.NewVarSlots(), head: make([]headArg, len(c.Head.Args))}
	for j, t := range c.Head.Args {
		if !t.IsVar {
			q.head[j] = headArg{name: t.Name, slot: -1, prev: -1}
			continue
		}
		prev := -1
		for k := 0; k < j; k++ {
			if a := c.Head.Args[k]; a.IsVar && a.Name == t.Name {
				prev = k
				break
			}
		}
		q.head[j] = headArg{slot: q.vars.Slot(t.Name), prev: prev}
	}
	q.compileBody(c.Body)
	return q
}

// compileBody interns the body atoms. Dead atoms are recorded one by one,
// each with est 0, and make the whole query unsat; a masked test that
// leaves them out still runs.
func (q *Query) compileBody(body []logic.Atom) {
	n := 0
	for _, a := range body {
		n += len(a.Args)
	}
	args := make([]logic.ITerm, n)
	q.atoms = make([]queryAtom, len(body))
	for k, a := range body {
		qa := &q.atoms[k]
		*qa = queryAtom{args: args[:len(a.Args):len(a.Args)], col: -1}
		args = args[len(a.Args):]
		t := q.inst.tables[a.Pred]
		if t != nil && t.rel.Arity() == len(a.Args) {
			qa.t, qa.est = t, t.nrows
		}
		for c, term := range a.Args {
			if term.IsVar {
				qa.args[c] = logic.VarITerm(q.vars.Slot(term.Name))
				continue
			}
			qa.nconst++
			if qa.t == nil {
				qa.args[c] = logic.ConstITerm(logic.UnknownSym)
				continue
			}
			sym := t.lookupVal(term.Name)
			qa.args[c] = logic.ConstITerm(sym)
			if cnt := t.countMatching(c, sym); qa.col < 0 || cnt < qa.est {
				qa.est, qa.col = cnt, c
			}
		}
		q.unsat = q.unsat || qa.est == 0
	}
}

// Covers reports whether the compiled clause covers the ground example e
// relative to the instance: the coverage test of Definition 3.1. Every
// argument of e is read as a constant. The test's store statistics are
// published before it returns; a worker testing many examples keeps its
// own Prober and calls CoversWith instead.
func (q *Query) Covers(e logic.Atom) bool {
	p := q.inst.prober()
	defer q.inst.done(p)
	return q.CoversWith(p, e)
}

// CoversWith is Covers on the caller's prober: the test's store statistics
// stay on p until p.Publish. p must come from the query's instance.
func (q *Query) CoversWith(p *Prober, e logic.Atom) bool {
	return q.covers(p, e, nil, nil, nil)
}

// CoversMask is CoversWith for the sub-clause that keeps the body atoms
// keep marks, in order: keep has one entry per body atom, and a nil keep
// keeps them all. The test answers, searches and leaves store statistics
// exactly as compiling the sub-clause and testing it would, without
// compiling anything: the atoms outside keep start the search as matched,
// and a dead atom fails the test only when keep holds it. ids, when not
// nil, are e's constants resolved already: ids[j] is the instance's symbol
// id of e.Args[j], or logic.UnknownSym when the instance has none. A
// caller testing the same examples against many clauses resolves them
// once and skips the symbol table lookups a test would make.
func (q *Query) CoversMask(p *Prober, e logic.Atom, ids []int32, keep []bool) bool {
	return q.covers(p, e, ids, keep, nil)
}

// covers binds the head to e, reading its constants' ids from ids when
// non-nil and from the symbol table otherwise, and searches the body atoms
// keep marks (every atom when keep is nil), handing each solution to
// yield as run does.
func (q *Query) covers(p *Prober, e logic.Atom, ids []int32, keep []bool, yield func(*logic.Subst) bool) bool {
	if e.Pred != q.pred || len(e.Args) != len(q.head) {
		return false
	}
	left := len(q.atoms)
	if keep == nil {
		if q.unsat {
			return false
		}
	} else {
		if len(keep) != len(q.atoms) {
			panic("relstore: keep mask of another length than the query's body")
		}
		left = 0
		for k, in := range keep {
			if in {
				if q.atoms[k].est == 0 {
					return false
				}
				left++
			}
		}
	}
	p.reset(q, keep)
	for j, h := range q.head {
		name := e.Args[j].Name
		switch {
		case h.slot < 0:
			if name != h.name {
				return false
			}
		case h.prev >= 0:
			if name != e.Args[h.prev].Name {
				return false
			}
		default:
			var id int32
			var ok bool
			if ids != nil {
				id = ids[j]
				ok = id != logic.UnknownSym
			} else {
				id, ok = q.inst.syms.Lookup(name)
			}
			if ok {
				p.subst.Bind(h.slot, id)
			} else if q.inBody(h, keep) {
				return false // no row holds the constant
			}
		}
	}
	return q.run(p, left, yield)
}

// inBody reports whether a body atom keep marks (any atom when keep is
// nil) mentions the head variable h.
func (q *Query) inBody(h headArg, keep []bool) bool {
	for k := range q.atoms {
		if (keep == nil || keep[k]) && slices.Contains(q.atoms[k].args, logic.VarITerm(h.slot)) {
			return true
		}
	}
	return false
}

// Prober is the state of query evaluation on one goroutine: the search
// scratch, reused from call to call, and the store statistics of every
// call since the last Publish. A coverage worker owns one for a run of
// tests and publishes once at its end, so concurrent workers never write
// the run's shared counters per test; the one-off Instance methods take
// one from a pool and publish after each call. Not safe for concurrent
// use.
type Prober struct {
	inst      *Instance
	subst     logic.Subst // slot → symbol id
	used      []bool      // atoms matched on the current search path
	nodes     int         // remaining search budget of the call
	found     bool
	tally     Tally
	scanned   int64 // tuples_scanned since the last Publish
	exhausted int64 // calls that ran out of budget since the last Publish
}

// NewProber returns a prober for queries compiled against the instance.
func (i *Instance) NewProber() *Prober {
	p := new(Prober)
	p.bind(i)
	return p
}

// bind points an empty prober at the instance, reusing its arrays.
func (p *Prober) bind(i *Instance) {
	p.inst, p.tally.names = i, i.names
	if cap(p.tally.stats) < len(i.list) {
		p.tally.stats = make([]obs.StoreStat, len(i.list))
	}
	p.tally.stats = p.tally.stats[:len(i.list)]
}

// Publish adds the statistics of the calls since the last Publish to the
// instance's run. A nil prober has none.
func (p *Prober) Publish() {
	if p == nil {
		return
	}
	p.tally.Publish(p.inst.obs)
	if p.scanned > 0 {
		p.inst.obs.Add(obs.CTuplesScanned, p.scanned)
	}
	if p.exhausted > 0 {
		p.inst.obs.Add(obs.CEvalBudgetExhausted, p.exhausted)
	}
	p.scanned, p.exhausted = 0, 0
}

// reset readies p for one call of q over the body atoms keep marks (every
// atom when keep is nil): the others start as matched.
func (p *Prober) reset(q *Query, keep []bool) {
	if p.inst != q.inst {
		panic("relstore: prober of another instance")
	}
	p.subst.Reset(q.vars.Len())
	if cap(p.used) < len(q.atoms) {
		p.used = make([]bool, len(q.atoms))
	}
	p.used = p.used[:len(q.atoms)]
	if keep == nil {
		clear(p.used)
		return
	}
	for k, in := range keep {
		p.used[k] = !in
	}
}

// proberPool holds the probers of one-off calls between calls, bound to
// no instance, so the pool keeps no store alive.
var proberPool = sync.Pool{New: func() any { return new(Prober) }}

// prober takes a pooled prober for one one-off call on the instance.
func (i *Instance) prober() *Prober {
	p := proberPool.Get().(*Prober)
	p.bind(i)
	return p
}

// done publishes a pooled prober's statistics and returns it to the pool.
func (i *Instance) done(p *Prober) {
	p.Publish()
	p.inst, p.tally.names = nil, nil
	proberPool.Put(p)
}

// run searches the left unmatched atoms from the bindings in p. yield
// receives each solution and returns whether to go on; a nil yield stops
// at the first solution, which run then reports.
func (q *Query) run(p *Prober, left int, yield func(*logic.Subst) bool) bool {
	p.nodes = q.inst.budget()
	p.found = false
	q.search(p, left, yield)
	if p.nodes < 0 {
		p.exhausted++
	}
	return p.found
}

// search matches the left unmatched atoms, backtracking with
// most-constrained-literal selection. It returns false when the
// enumeration stopped: the budget ran out or yield asked to stop.
func (q *Query) search(p *Prober, left int, yield func(*logic.Subst) bool) bool {
	p.nodes--
	if p.nodes < 0 {
		return false // budget exhausted: cut the search
	}
	if left == 0 {
		if yield == nil {
			p.found = true
			return false
		}
		return yield(&p.subst)
	}
	// Pick the atom with the fewest candidate rows: the smallest posting
	// over its bound columns, or the whole table when none is bound.
	best, bestEst, bestCol, bestBound := -1, 0, -1, 0
	for k := range q.atoms {
		if p.used[k] {
			continue
		}
		a := &q.atoms[k]
		est, col, bound := a.est, a.col, a.nconst
		for c, arg := range a.args {
			if !arg.IsVar() {
				continue
			}
			v, ok := p.subst.Value(arg.Slot())
			if !ok {
				continue
			}
			bound++
			if n := a.t.countMatching(c, v); col < 0 || n < est {
				est, col = n, c
			}
		}
		if best < 0 || est < bestEst {
			if est == 0 {
				return true // dead branch: no solutions, but not stopped
			}
			best, bestEst, bestCol, bestBound = k, est, col, bound
		}
	}
	// Candidate rows: the whole table when no column is bound, else the
	// posting of the most selective bound column. Rows failing another
	// bound column are rejected by bind, so walking the posting visits
	// exactly the filtered rows, in order.
	a := &q.atoms[best]
	t := a.t
	var rows []int32
	n, scanned := t.nrows, int64(t.nrows)
	if bestCol >= 0 {
		rows = t.matchingRows(bestCol, a.value(p, bestCol))
		n = len(rows)
		if bestBound == 1 {
			scanned = int64(n)
		} else {
			scanned = int64(a.countBound(p, rows))
		}
		p.tally.record(t, obs.StoreStat{Lookups: 1, TuplesScanned: int64(n), IndexHits: t.hit()})
	} else {
		p.tally.record(t, obs.StoreStat{Lookups: 1, TuplesScanned: int64(n)})
	}
	p.scanned += scanned
	p.used[best] = true
	mark := p.subst.Mark()
	for k := 0; k < n; k++ {
		r := k
		if rows != nil {
			r = int(rows[k])
		}
		if a.bind(p, r, mark) {
			if !q.search(p, left-1, yield) {
				return false
			}
			p.subst.UndoTo(mark)
		}
	}
	p.used[best] = false
	return true
}

// value returns the symbol column col of the atom must hold under p.
func (a *queryAtom) value(p *Prober, col int) int32 {
	if arg := a.args[col]; arg.IsVar() {
		v, _ := p.subst.Value(arg.Slot())
		return v
	}
	return a.args[col].Sym()
}

// countBound counts the rows matching every column bound under p.
func (a *queryAtom) countBound(p *Prober, rows []int32) int {
	ar := len(a.args)
	n := 0
next:
	for _, r := range rows {
		base := int(r) * ar
		for c, arg := range a.args {
			want := arg.Sym()
			if arg.IsVar() {
				v, ok := p.subst.Value(arg.Slot())
				if !ok {
					continue
				}
				want = v
			}
			if a.t.data[base+c] != want {
				continue next
			}
		}
		n++
	}
	return n
}

// bind matches the atom against row r: bound columns must agree and free
// slots bind to the row's values. On a mismatch it unbinds back to mark.
func (a *queryAtom) bind(p *Prober, r, mark int) bool {
	row := a.t.data[r*len(a.args) : (r+1)*len(a.args)]
	for c, arg := range a.args {
		v := row[c]
		if !arg.IsVar() {
			if arg.Sym() != v {
				p.subst.UndoTo(mark)
				return false
			}
			continue
		}
		if cur, ok := p.subst.Value(arg.Slot()); !ok {
			p.subst.Bind(arg.Slot(), v)
		} else if cur != v {
			p.subst.UndoTo(mark)
			return false
		}
	}
	return true
}

// CoverageWitness returns the substitution under which clause c covers
// the ground example atom e — the head match extended to a full body
// embedding, the first in the solver's deterministic enumeration order —
// or nil when c does not cover e. `castor explain` renders it as the
// evidence of a coverage.
func (i *Instance) CoverageWitness(c *logic.Clause, e logic.Atom) logic.Substitution {
	q := i.Compile(c)
	var witness logic.Substitution
	p := i.prober()
	defer i.done(p)
	q.covers(p, e, nil, nil, func(sub *logic.Subst) bool {
		// A head variable the body does not mention stays unbound when the
		// instance lacks its constant, so head variables take e's terms.
		witness = logic.NewSubstitution()
		for j, t := range c.Head.Args {
			if t.IsVar {
				witness[t.Name] = e.Args[j]
			}
		}
		for s := int32(0); s < int32(sub.Slots()); s++ {
			if v, ok := sub.Value(s); ok {
				witness[q.vars.Name(s)] = logic.Const(i.syms.Name(v))
			}
		}
		return false
	})
	return witness
}

// CoversExample reports whether clause c covers the ground example atom e
// relative to the instance: some θ maps c's head onto e and c's body into
// the instance. This is the coverage test of Definition 3.1. Testing many
// examples against one clause should Compile it once instead.
func (i *Instance) CoversExample(c *logic.Clause, e logic.Atom) bool {
	return i.Compile(c).Covers(e)
}

// DefinitionCovers reports whether any clause of the definition covers e.
func (i *Instance) DefinitionCovers(d *logic.Definition, e logic.Atom) bool {
	return i.DefinitionCoverage(d, []logic.Atom{e})[0]
}

// DefinitionCoverage reports, for each example, whether any clause of the
// definition covers it, with one Compile per clause and every test on one
// prober. An example is tested against the clauses in order until one
// covers it, so testing a list at once makes the same tests, and the same
// store statistics, as testing its examples one at a time.
func (i *Instance) DefinitionCoverage(d *logic.Definition, examples []logic.Atom) []bool {
	out := make([]bool, len(examples))
	p := i.prober()
	defer i.done(p)
	for _, c := range d.Clauses {
		q := i.Compile(c)
		for j, e := range examples {
			out[j] = out[j] || q.CoversWith(p, e)
		}
	}
	return out
}

// EvalClause computes the result of applying the clause to the instance:
// the set of ground head atoms of all instantiations whose body holds. The
// clause must be safe (otherwise the result would be infinite).
func (i *Instance) EvalClause(c *logic.Clause) ([]logic.Atom, error) {
	if !c.IsSafe() {
		return nil, fmt.Errorf("relstore: EvalClause on unsafe clause %v", c)
	}
	q := i.Compile(c)
	if q.unsat {
		return nil, nil
	}
	var out []logic.Atom
	seen := make(map[string]bool)
	p := i.prober()
	defer i.done(p)
	p.reset(q, nil)
	q.run(p, len(q.atoms), func(sub *logic.Subst) bool {
		h := logic.Atom{Pred: c.Head.Pred, Args: make([]logic.Term, len(q.head))}
		for j, ha := range q.head {
			if ha.slot < 0 {
				h.Args[j] = logic.Const(ha.name)
			} else {
				v, _ := sub.Value(ha.slot)
				h.Args[j] = logic.Const(i.syms.Name(v))
			}
		}
		if k := h.Key(); !seen[k] {
			seen[k] = true
			out = append(out, h)
		}
		return true
	})
	return out, nil
}

// EvalDefinition computes the union of the clause results: hR(I) for a Horn
// definition.
func (i *Instance) EvalDefinition(d *logic.Definition) ([]logic.Atom, error) {
	var out []logic.Atom
	seen := make(map[string]bool)
	for _, c := range d.Clauses {
		atoms, err := i.EvalClause(c)
		if err != nil {
			return nil, err
		}
		for _, a := range atoms {
			k := a.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, a)
			}
		}
	}
	return out, nil
}
