package relstore

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Tuple is one row of a relation instance in external (string) form. The
// store itself keeps rows interned and columnar (see columnar.go); Tuple
// is the boundary type query results are materialized into.
type Tuple []string

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Tally is store access statistics accumulated where the probes run, for
// publishing into a run's registry in one step: once per unit of work —
// one bottom-clause construction, one shard of coverage tests — never per
// fetch. Flushing shared counters after every test cost 0.33 s of the
// 1.90 s inside Query.Covers over 16 uwcse-direct passes (2-vCPU VM,
// GOMAXPROCS 2, Go 1.24): both pool workers wrote four counters that
// shared one cache line. A tally holds one entry per table of the
// instance that made it and may record only those tables. Not safe for
// concurrent use.
type Tally struct {
	names []string        // relation names by table number
	stats []obs.StoreStat // by table number
}

// NewTally returns an empty tally over the instance's tables.
func (i *Instance) NewTally() *Tally {
	return &Tally{names: i.names, stats: make([]obs.StoreStat, len(i.list))}
}

// record adds one fetch's counts to t's entry. A nil tally counts
// nothing: the path of one-off fetches (TuplesWith, TuplesContaining).
func (tl *Tally) record(t *Table, s obs.StoreStat) {
	if tl == nil {
		return
	}
	e := &tl.stats[t.num]
	e.Lookups += s.Lookups
	e.TuplesScanned += s.TuplesScanned
	e.IndexHits += s.IndexHits
	e.INDExpansions += s.INDExpansions
}

// AddINDExpansions records n tuples pulled into a bottom clause by IND
// chasing with t as the chase target. The chase itself lives in the
// learner; the count lands in the same per-relation entry as the probe
// statistics.
func (tl *Tally) AddINDExpansions(t *Table, n int64) {
	tl.record(t, obs.StoreStat{INDExpansions: n})
}

// Publish adds the accumulated statistics to the relstore section of
// run's registry and empties the tally. Without a registry the counts are
// dropped and no shared counter is written.
func (tl *Tally) Publish(run *obs.Run) {
	if reg := run.Registry(); reg != nil {
		reg.AddStore(tl.names, tl.stats)
	}
	clear(tl.stats)
}

// Instance is a database instance of a schema: one table per relation,
// all interning constants through one shared symbol table.
type Instance struct {
	schema     *Schema
	tables     map[string]*Table
	list       []*Table // the tables in schema order; Table.num indexes it
	names      []string // the relations' names in the same order
	syms       *logic.Symbols
	indexed    bool
	evalBudget int      // per-call search-node budget; 0 = DefaultEvalBudget
	obs        *obs.Run // instrumentation; nil observes nothing
}

// SetObs attaches an instrumentation run: query evaluation reports the
// tuples it scans and its per-relation access statistics into it. Set it
// before learning starts (concurrent coverage workers read it without
// synchronization); nil detaches.
func (i *Instance) SetObs(run *obs.Run) { i.obs = run }

// NewInstance returns an empty instance with posting indexes enabled.
func NewInstance(schema *Schema) *Instance { return newInstance(schema, true) }

// NewUnindexedInstance returns an empty instance whose tables scan instead
// of using posting indexes. It exists for the index ablation benchmarks.
func NewUnindexedInstance(schema *Schema) *Instance { return newInstance(schema, false) }

func newInstance(schema *Schema, indexed bool) *Instance {
	return newInstanceOn(schema, indexed, logic.NewSymbols())
}

// newInstanceOn returns an empty instance interning through syms.
func newInstanceOn(schema *Schema, indexed bool, syms *logic.Symbols) *Instance {
	inst := &Instance{
		schema:  schema,
		tables:  make(map[string]*Table),
		syms:    syms,
		indexed: indexed,
	}
	for _, r := range schema.Relations() {
		t := newTable(r, inst.syms, indexed)
		t.num = int32(len(inst.list))
		inst.tables[r.Name] = t
		inst.list = append(inst.list, t)
		inst.names = append(inst.names, r.Name)
	}
	return inst
}

// Schema returns the instance's schema.
func (i *Instance) Schema() *Schema { return i.schema }

// Symbols returns the instance's shared constant-interning table. Reads
// (Lookup/Name) are safe concurrently once loading is done; interning new
// symbols is the single-writer load path only.
func (i *Instance) Symbols() *logic.Symbols { return i.syms }

// Insert adds a tuple to a relation. Duplicate tuples are ignored (set
// semantics). It returns an error for unknown relations or arity mismatch.
// Inserting is single-writer: it interns through the shared symbol table
// and thaws any frozen indexes, so it must not race with queries.
func (i *Instance) Insert(rel string, values ...string) error {
	t, ok := i.tables[rel]
	if !ok {
		return fmt.Errorf("relstore: insert into unknown relation %q", rel)
	}
	if len(values) != t.rel.Arity() {
		return fmt.Errorf("relstore: insert into %s with %d values", t.rel, len(values))
	}
	t.appendRow(values)
	return nil
}

// MustInsert is Insert that panics on error.
func (i *Instance) MustInsert(rel string, values ...string) {
	if err := i.Insert(rel, values...); err != nil {
		panic(err)
	}
}

// Freeze builds the posting indexes of every table now, instead of lazily
// on first probe, so concurrent readers start from a fully compacted
// store. Call it once after loading; inserting afterwards thaws the
// affected table again.
func (i *Instance) Freeze() {
	for _, t := range i.tables {
		t.ensureFrozen()
	}
}

// Table returns the table of a relation, or nil if unknown.
func (i *Instance) Table(rel string) *Table { return i.tables[rel] }

// NumTuples returns the total number of tuples across all relations.
func (i *Instance) NumTuples() int {
	n := 0
	for _, t := range i.tables {
		n += t.Len()
	}
	return n
}

// Equal reports whether two instances over the same schema hold exactly
// the same tuples. The instances may intern through different symbol
// tables; comparison goes through external values.
func (i *Instance) Equal(j *Instance) bool {
	if len(i.tables) != len(j.tables) {
		return false
	}
	for name, ti := range i.tables {
		tj, ok := j.tables[name]
		if !ok || ti.Len() != tj.Len() {
			return false
		}
		equal := true
		ti.ForEachTuple(func(tp Tuple) bool {
			if !tj.Contains(tp) {
				equal = false
				return false
			}
			return true
		})
		if !equal {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the instance (onto the same schema object)
// with a freshly built symbol table.
func (i *Instance) Clone() *Instance {
	out := newInstance(i.schema, i.indexed)
	for name, t := range i.tables {
		ot := out.tables[name]
		t.ForEachTuple(func(tp Tuple) bool {
			ot.appendRow(tp)
			return true
		})
	}
	return out
}
