package relstore

import (
	"fmt"
	"sync"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Conjunctive-query evaluation: satisfying clause bodies against an
// instance, full clause/definition evaluation (the hR(I) of the paper), and
// example coverage.
//
// There is one solver, and it runs on compiled queries. Compile interns a
// clause once against the instance's symbol table: variables become dense
// slots, constants become symbol ids (logic.UnknownSym when the instance
// never saw them), and a body atom over a missing relation, with the wrong
// arity or with a constant no row holds makes the whole query
// unsatisfiable up front. Testing a ground example then binds the head
// slots and backtracks over a logic.Subst (an int32 slot array with a
// trail), enumerating candidate rows as row ids straight out of the CSR
// postings (a point probe borrows the posting slice without copying).
// Scratch state comes from a pool, so a steady-state test allocates
// nothing and touches no map and no string beyond the example's own
// constants. The Instance
// query methods (SatisfyBody, WitnessBody, CoversExample, EvalClause, …)
// are thin wrappers that compile and run the same solver, turning symbol
// ids back into names only at a solution.
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

// Query is a clause (or a bare body) compiled against one instance. It is
// immutable after compilation and safe for concurrent tests; it stays
// valid until the instance is next modified.
type Query struct {
	inst  *Instance
	pred  string // head predicate; empty for a compiled body
	head  []headArg
	atoms []queryAtom
	vars  *logic.VarSlots // slot → variable name
	unsat bool            // some body atom can match no row
}

// headArg is one compiled head position: a constant (slot < 0), the first
// occurrence of a variable (prev < 0), or a repeat of the variable first
// seen at head position prev. Repeats compare the example's names, so two
// distinct constants the instance has never seen stay distinct. inBody
// records whether the body mentions the variable: bound to a constant the
// instance has never seen, such a variable makes the test fail outright.
type headArg struct {
	name   string
	slot   int32
	prev   int
	inBody bool
}

// queryAtom is one compiled body atom. est and col are its candidate
// estimate from the constant columns alone: the fewest rows any constant
// column admits and that column, or the table size and -1 when no column
// is constant.
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
	q.compileBody(c.Body, nil)
	inBody := make([]bool, q.vars.Len())
	for _, a := range q.atoms {
		for _, arg := range a.args {
			if arg.IsVar() {
				inBody[arg.Slot()] = true
			}
		}
	}
	for j, h := range q.head {
		q.head[j].inBody = h.slot >= 0 && inBody[h.slot]
	}
	return q
}

// compileBody interns the body atoms, resolving variables through init
// first: one bound to a constant compiles as that constant, one aliased to
// another variable shares its slot.
func (q *Query) compileBody(body []logic.Atom, init logic.Substitution) {
	n := 0
	for _, a := range body {
		n += len(a.Args)
	}
	args := make([]logic.ITerm, n)
	q.atoms = make([]queryAtom, len(body))
	for k, a := range body {
		t := q.inst.tables[a.Pred]
		if t == nil || t.rel.Arity() != len(a.Args) {
			q.unsat = true
			return
		}
		qa := queryAtom{t: t, args: args[:len(a.Args):len(a.Args)], est: t.nrows, col: -1}
		args = args[len(a.Args):]
		for c, term := range a.Args {
			if init != nil {
				term = init.Resolve(term)
			}
			if term.IsVar {
				qa.args[c] = logic.VarITerm(q.vars.Slot(term.Name))
				continue
			}
			sym := t.lookupVal(term.Name)
			qa.args[c] = logic.ConstITerm(sym)
			qa.nconst++
			if cnt := t.countMatching(c, sym); qa.col < 0 || cnt < qa.est {
				qa.est, qa.col = cnt, c
			}
		}
		if qa.est == 0 {
			q.unsat = true
			return
		}
		q.atoms[k] = qa
	}
}

// bodyQuery compiles a bare body under init.
func (i *Instance) bodyQuery(body []logic.Atom, init logic.Substitution) *Query {
	q := &Query{inst: i, vars: logic.NewVarSlots()}
	q.compileBody(body, init)
	return q
}

// Covers reports whether the compiled clause covers the ground example e
// relative to the instance: the coverage test of Definition 3.1. Every
// argument of e is read as a constant.
func (q *Query) Covers(e logic.Atom) bool {
	if q.unsat || e.Pred != q.pred || len(e.Args) != len(q.head) {
		return false
	}
	sc := q.scratch()
	defer scratchPool.Put(sc)
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
			if id, ok := q.inst.syms.Lookup(name); ok {
				sc.subst.Bind(h.slot, id)
			} else if h.inBody {
				return false // no row holds the constant
			}
		}
	}
	return q.run(sc, nil)
}

// scratch is the mutable state of one top-level call.
type scratch struct {
	subst   logic.Subst // slot → symbol id
	used    []bool      // atoms matched on the current search path
	stats   []atomStats
	nodes   int   // remaining search budget
	scanned int64 // tuples_scanned of this call
	found   bool
}

// atomStats accumulates one atom's probe statistics during a call; they
// reach the table's atomic counters once, when the call ends.
type atomStats struct{ lookups, scanned, hits int64 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratch takes a cleared scratch sized for the query from the pool.
func (q *Query) scratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.subst.Reset(q.vars.Len())
	atoms := len(q.atoms)
	if cap(sc.used) < atoms {
		sc.used = make([]bool, atoms)
		sc.stats = make([]atomStats, atoms)
	}
	sc.used = sc.used[:atoms]
	clear(sc.used)
	sc.stats = sc.stats[:atoms]
	clear(sc.stats)
	return sc
}

// run searches from the bindings in sc and flushes the call's statistics.
// yield receives each solution and returns whether to go on; a nil yield
// stops at the first solution, which run then reports.
func (q *Query) run(sc *scratch, yield func(*logic.Subst) bool) bool {
	sc.nodes = q.inst.budget()
	sc.scanned = 0
	sc.found = false
	q.search(sc, len(q.atoms), yield)
	for k := range sc.stats {
		st := &sc.stats[k]
		if st.lookups == 0 {
			continue
		}
		ts := &q.atoms[k].t.stats
		ts.lookups.Add(st.lookups)
		ts.scanned.Add(st.scanned)
		if st.hits > 0 {
			ts.indexHits.Add(st.hits)
		}
	}
	if sc.scanned > 0 {
		q.inst.obs.Add(obs.CTuplesScanned, sc.scanned)
	}
	if sc.nodes < 0 {
		q.inst.obs.Inc(obs.CEvalBudgetExhausted)
	}
	return sc.found
}

// search matches the left unmatched atoms, backtracking with
// most-constrained-literal selection. It returns false when the
// enumeration stopped: the budget ran out or yield asked to stop.
func (q *Query) search(sc *scratch, left int, yield func(*logic.Subst) bool) bool {
	sc.nodes--
	if sc.nodes < 0 {
		return false // budget exhausted: cut the search
	}
	if left == 0 {
		if yield == nil {
			sc.found = true
			return false
		}
		return yield(&sc.subst)
	}
	// Pick the atom with the fewest candidate rows: the smallest posting
	// over its bound columns, or the whole table when none is bound.
	best, bestEst, bestCol, bestBound := -1, 0, -1, 0
	for k := range q.atoms {
		if sc.used[k] {
			continue
		}
		a := &q.atoms[k]
		est, col, bound := a.est, a.col, a.nconst
		for c, arg := range a.args {
			if !arg.IsVar() {
				continue
			}
			v, ok := sc.subst.Value(arg.Slot())
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
	st := &sc.stats[best]
	st.lookups++
	var rows []int32
	n := t.nrows
	if bestCol < 0 {
		sc.scanned += int64(n)
	} else {
		if t.indexed {
			st.hits++
		}
		rows = t.matchingRows(bestCol, a.value(sc, bestCol))
		n = len(rows)
		if bestBound == 1 {
			sc.scanned += int64(n)
		} else {
			sc.scanned += int64(a.countBound(sc, rows))
		}
	}
	st.scanned += int64(n)
	sc.used[best] = true
	mark := sc.subst.Mark()
	for k := 0; k < n; k++ {
		r := k
		if rows != nil {
			r = int(rows[k])
		}
		if a.bind(sc, r, mark) {
			if !q.search(sc, left-1, yield) {
				return false
			}
			sc.subst.UndoTo(mark)
		}
	}
	sc.used[best] = false
	return true
}

// value returns the symbol column col of the atom must hold under sc.
func (a *queryAtom) value(sc *scratch, col int) int32 {
	if arg := a.args[col]; arg.IsVar() {
		v, _ := sc.subst.Value(arg.Slot())
		return v
	}
	return a.args[col].Sym()
}

// countBound counts the rows matching every column bound under sc.
func (a *queryAtom) countBound(sc *scratch, rows []int32) int {
	ar := len(a.args)
	n := 0
next:
	for _, r := range rows {
		base := int(r) * ar
		for c, arg := range a.args {
			want := arg.Sym()
			if arg.IsVar() {
				v, ok := sc.subst.Value(arg.Slot())
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
func (a *queryAtom) bind(sc *scratch, r, mark int) bool {
	row := a.t.data[r*len(a.args) : (r+1)*len(a.args)]
	for c, arg := range a.args {
		v := row[c]
		if !arg.IsVar() {
			if arg.Sym() != v {
				sc.subst.UndoTo(mark)
				return false
			}
			continue
		}
		if cur, ok := sc.subst.Value(arg.Slot()); !ok {
			sc.subst.Bind(arg.Slot(), v)
		} else if cur != v {
			sc.subst.UndoTo(mark)
			return false
		}
	}
	return true
}

// SatisfyBody reports whether some extension of init maps every body atom
// onto a tuple of the instance. Atoms over relations absent from the schema
// never match.
func (i *Instance) SatisfyBody(body []logic.Atom, init logic.Substitution) bool {
	q := i.bodyQuery(body, init)
	if q.unsat {
		return false
	}
	sc := q.scratch()
	defer scratchPool.Put(sc)
	return q.run(sc, nil)
}

// WitnessBody returns the first substitution (in the solver's
// deterministic enumeration order) extending init that maps every body
// atom onto a tuple of the instance, or nil when none exists. It is
// SatisfyBody returning its evidence: `castor explain` renders the result
// as the matching substitution of a coverage witness.
func (i *Instance) WitnessBody(body []logic.Atom, init logic.Substitution) logic.Substitution {
	q := i.bodyQuery(body, init)
	if q.unsat {
		return nil
	}
	var witness logic.Substitution
	sc := q.scratch()
	defer scratchPool.Put(sc)
	q.run(sc, func(sub *logic.Subst) bool {
		witness = init.Clone()
		for s := int32(0); s < int32(sub.Slots()); s++ {
			v, _ := sub.Value(s)
			witness[q.vars.Name(s)] = logic.Const(i.syms.Name(v))
		}
		return false
	})
	return witness
}

// CoverageWitness returns the substitution under which clause c covers
// the ground example atom e — the head match extended to a full body
// embedding — or nil when c does not cover e.
func (i *Instance) CoverageWitness(c *logic.Clause, e logic.Atom) logic.Substitution {
	s, ok := logic.MatchAtoms(c.Head, e, logic.NewSubstitution())
	if !ok {
		return nil
	}
	return i.WitnessBody(c.Body, s)
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
	for _, c := range d.Clauses {
		if i.CoversExample(c, e) {
			return true
		}
	}
	return false
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
	sc := q.scratch()
	defer scratchPool.Put(sc)
	q.run(sc, func(sub *logic.Subst) bool {
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
