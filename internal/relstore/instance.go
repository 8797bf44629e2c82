package relstore

import (
	"fmt"
	"sync/atomic"

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

// tableStats are the cumulative access statistics of one table. Atomic
// because coverage workers probe tables concurrently; always on, because
// each probe already walks a candidate list and one atomic add per fetch
// is noise next to it.
type tableStats struct {
	lookups       atomic.Int64 // candidate-tuple fetches
	scanned       atomic.Int64 // tuples examined by those fetches
	indexHits     atomic.Int64 // fetches answered through a posting index
	indExpansions atomic.Int64 // tuples chased in through INDs (§7.1)
}

// Stats returns a snapshot of the table's access statistics.
func (t *Table) Stats() obs.StoreStat {
	return obs.StoreStat{
		Lookups:       t.stats.lookups.Load(),
		TuplesScanned: t.stats.scanned.Load(),
		IndexHits:     t.stats.indexHits.Load(),
		INDExpansions: t.stats.indExpansions.Load(),
	}
}

// AddINDExpansions records n tuples pulled into a bottom clause by IND
// chasing with this table as the chase target. The chase itself lives in
// the learner; the count lives here so it lands in the same per-relation
// snapshot as the probe statistics.
func (t *Table) AddINDExpansions(n int64) {
	if n > 0 {
		t.stats.indExpansions.Add(n)
	}
}

// Instance is a database instance of a schema: one table per relation,
// all interning constants through one shared symbol table.
type Instance struct {
	schema     *Schema
	tables     map[string]*Table
	syms       *logic.Symbols
	indexed    bool
	evalBudget int      // per-call search-node budget; 0 = DefaultEvalBudget
	obs        *obs.Run // instrumentation; nil observes nothing
}

// SetObs attaches an instrumentation run: query evaluation reports the
// tuples it scans into it. Set it before learning starts (concurrent
// coverage workers read it without synchronization); nil detaches.
func (i *Instance) SetObs(run *obs.Run) { i.obs = run }

// NewInstance returns an empty instance with posting indexes enabled.
func NewInstance(schema *Schema) *Instance { return newInstance(schema, true) }

// NewUnindexedInstance returns an empty instance whose tables scan instead
// of using posting indexes. It exists for the index ablation benchmarks.
func NewUnindexedInstance(schema *Schema) *Instance { return newInstance(schema, false) }

func newInstance(schema *Schema, indexed bool) *Instance {
	inst := &Instance{
		schema:  schema,
		tables:  make(map[string]*Table),
		syms:    logic.NewSymbols(),
		indexed: indexed,
	}
	for _, r := range schema.Relations() {
		inst.tables[r.Name] = newTable(r, inst.syms, indexed)
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

// StoreStats snapshots the per-relation access statistics of every table
// that has been probed at least once (untouched relations are omitted).
// Safe to call while coverage workers run: each field is read atomically,
// so a snapshot is per-field consistent, not cross-field.
func (i *Instance) StoreStats() map[string]obs.StoreStat {
	out := make(map[string]obs.StoreStat, len(i.tables))
	for name, t := range i.tables {
		if s := t.Stats(); s != (obs.StoreStat{}) {
			out[name] = s
		}
	}
	return out
}

// ResetStoreStats zeroes the access statistics of every table.
func (i *Instance) ResetStoreStats() {
	for _, t := range i.tables {
		t.stats.lookups.Store(0)
		t.stats.scanned.Store(0)
		t.stats.indexHits.Store(0)
		t.stats.indExpansions.Store(0)
	}
}

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
