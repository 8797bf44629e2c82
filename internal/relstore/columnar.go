package relstore

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// The columnar table layout. Tuples are interned against the instance's
// shared symbol table and stored as flat int32 rows in one contiguous
// backing slice per relation (row r = data[r*arity : (r+1)*arity]), so a
// 14M-tuple relation is a handful of large allocations instead of millions
// of small string slices. Dedupe runs over 64-bit hashes of interned rows
// in an open-addressed row-id set (no string keys, no per-probe
// allocation), and the per-column indexes are CSR-style postings — offsets
// into one row-id array, addressed directly by value id over the column's
// id range — built by counting sort when the table is frozen and probed
// lock-free afterwards. Every scan walks rows in ascending row order, so
// every query is byte-deterministic.

// maxInlineArity bounds the stack-allocated scratch row used by the
// zero-allocation probe paths; wider relations fall back to the heap.
const maxInlineArity = 12

// rowHash mixes the interned values of one row into a 64-bit key (FNV-1a
// over the value ids). It replaces the strings.Join dedupe key: no bytes
// are concatenated and nothing is allocated.
func rowHash(vals []int32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range vals {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// rowSet is an open-addressed hash set of row ids, keyed by the hash of
// the row's interned values. Only ids are stored (4 bytes per slot at ≤50%
// load); membership compares the candidate row's values directly, so hash
// collisions cost one short int32 comparison, never a wrong answer.
type rowSet struct {
	slots []int32 // row ids; -1 = empty
	n     int
}

const rowSetEmpty int32 = -1

func (s *rowSet) init(capacity int) {
	size := 16
	for size < capacity*2 {
		size <<= 1
	}
	s.slots = make([]int32, size)
	for i := range s.slots {
		s.slots[i] = rowSetEmpty
	}
	s.n = 0
}

func (s *rowSet) grow(t *Table) {
	old := s.slots
	s.init(2 * len(old))
	for _, id := range old {
		if id != rowSetEmpty {
			s.insertKnownAbsent(t, id)
		}
	}
}

// insertKnownAbsent places a row id whose row is known not to be present.
func (s *rowSet) insertKnownAbsent(t *Table, id int32) {
	mask := uint64(len(s.slots) - 1)
	i := rowHash(t.row(int(id))) & mask
	for s.slots[i] != rowSetEmpty {
		i = (i + 1) & mask
	}
	s.slots[i] = id
	s.n++
}

// lookup returns the stored row id equal to vals, or -1.
func (s *rowSet) lookup(t *Table, vals []int32) int32 {
	if len(s.slots) == 0 {
		return -1
	}
	mask := uint64(len(s.slots) - 1)
	i := rowHash(vals) & mask
	for {
		id := s.slots[i]
		if id == rowSetEmpty {
			return -1
		}
		if t.rowEquals(int(id), vals) {
			return id
		}
		i = (i + 1) & mask
	}
}

// insert adds the row id for vals unless an equal row is present.
func (s *rowSet) insert(t *Table, id int32, vals []int32) bool {
	if len(s.slots) == 0 {
		s.init(16)
	}
	if s.lookup(t, vals) >= 0 {
		return false
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow(t)
	}
	s.insertKnownAbsent(t, id)
	return true
}

// colIndex is the frozen CSR posting list of one column, direct-addressed
// by value id: the column's ids span [lo, lo+len(offs)-1), and
// offs[v-lo]..offs[v-lo+1] delimits the row ids holding v (ascending, i.e.
// insertion order) in rows. Ids inside the span that the column lacks
// delimit an empty run.
type colIndex struct {
	lo   int32
	offs []int32
	rows []int32
}

// postings returns the row ids holding value id v in this column — a
// shared subslice of the CSR row array, never a fresh allocation. One
// unsigned comparison rejects ids below lo, above the column's top id and
// -1 alike; then two loads delimit the run.
func (c *colIndex) postings(v int32) []int32 {
	k := uint32(v - c.lo)
	if k >= uint32(len(c.offs)-1) {
		return nil
	}
	return c.rows[c.offs[k]:c.offs[k+1]]
}

// Table is the instance of one relation: a set of interned columnar rows
// with CSR per-column postings.
type Table struct {
	rel     *Relation
	syms    *logic.Symbols // shared with the owning instance
	data    []int32        // row-major, arity-strided
	nrows   int
	set     rowSet
	indexed bool

	// cols are the frozen CSR postings, one per column, valid while frozen
	// is set. Inserting thaws the table (drops the postings); the first
	// probe after a load freezes it again, so steady-state reads are
	// lock-free. The mutex only guards the freeze transition itself.
	frozen atomic.Bool
	mu     sync.Mutex
	cols   []colIndex

	stats tableStats
}

func newTable(rel *Relation, syms *logic.Symbols, indexed bool) *Table {
	return &Table{rel: rel, syms: syms, indexed: indexed}
}

// Relation returns the relation symbol of the table.
func (t *Table) Relation() *Relation { return t.rel }

// Len returns the number of tuples.
func (t *Table) Len() int { return t.nrows }

// row returns the interned values of row r (a view into the backing
// slice; callers must not modify it).
func (t *Table) row(r int) []int32 {
	ar := t.rel.Arity()
	return t.data[r*ar : r*ar+ar]
}

// rowEquals compares stored row r against interned values.
func (t *Table) rowEquals(r int, vals []int32) bool {
	base := r * len(vals)
	for i, v := range vals {
		if t.data[base+i] != v {
			return false
		}
	}
	return true
}

// materialize externalizes row r into a fresh Tuple, writing through dst
// when it has capacity (the bulk paths hand in slabs of one backing array).
func (t *Table) materialize(r int, dst []string) Tuple {
	row := t.row(r)
	if dst == nil {
		dst = make([]string, len(row))
	}
	for i, v := range row {
		dst[i] = t.syms.Name(v)
	}
	return dst
}

// appendRow interns the external values directly into the backing slice
// and inserts the row under set semantics, returning false on duplicates.
// Single-writer (the load path): it may grow the shared symbol table.
func (t *Table) appendRow(values []string) bool {
	if t.frozen.Load() {
		t.thaw()
	}
	base := len(t.data)
	for _, v := range values {
		t.data = append(t.data, t.syms.Intern(v))
	}
	staged := t.data[base:]
	if !t.set.insert(t, int32(t.nrows), staged) {
		t.data = t.data[:base]
		return false
	}
	t.nrows++
	return true
}

// thaw drops the frozen postings ahead of a mutation.
func (t *Table) thaw() {
	t.mu.Lock()
	t.cols = nil
	t.frozen.Store(false)
	t.mu.Unlock()
}

// ensureFrozen builds the CSR postings once per load phase. Concurrent
// readers may race to be first; the mutex serializes the build and the
// atomic flag keeps the steady-state check to one load.
func (t *Table) ensureFrozen() {
	if t.frozen.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen.Load() {
		return
	}
	if t.indexed {
		t.cols = t.buildPostings()
	}
	t.frozen.Store(true)
}

// buildPostings counting-sorts every column into CSR form over its value-id
// range [lo, hi]: one pass for the range, one to count occurrences per id,
// a prefix sum, and one backward pass that scatters row ids while moving
// each offset from the end of its run to its start — O(rows + range) per
// column, no hash maps, and row ids land in ascending (insertion) order
// within each value run, which is what the determinism of every probe path
// rests on.
func (t *Table) buildPostings() []colIndex {
	ar := t.rel.Arity()
	cols := make([]colIndex, ar)
	for c := range cols {
		lo, hi := int32(0), int32(-1)
		if t.nrows > 0 {
			lo, hi = t.data[c], t.data[c]
		}
		for r := 1; r < t.nrows; r++ {
			v := t.data[r*ar+c]
			lo, hi = min(lo, v), max(hi, v)
		}
		offs := make([]int32, hi-lo+2)
		for r := 0; r < t.nrows; r++ {
			offs[t.data[r*ar+c]-lo]++
		}
		sum := int32(0)
		for k, n := range offs {
			sum += n
			offs[k] = sum
		}
		rows := make([]int32, t.nrows)
		for r := t.nrows - 1; r >= 0; r-- {
			k := t.data[r*ar+c] - lo
			offs[k]--
			rows[offs[k]] = int32(r)
		}
		cols[c] = colIndex{lo: lo, offs: offs, rows: rows}
	}
	return cols
}

// lookupVal interns a probe value read-only: unknown constants map to -1,
// which no stored row holds.
func (t *Table) lookupVal(v string) int32 {
	if id, ok := t.syms.Lookup(v); ok {
		return id
	}
	return -1
}

// countMatching returns the number of rows holding value id v in column
// col, without touching the access statistics (it backs selectivity
// estimates, as the old hash-index length peek did).
func (t *Table) countMatching(col int, v int32) int {
	if v < 0 {
		return 0
	}
	if t.indexed {
		t.ensureFrozen()
		return len(t.cols[col].postings(v))
	}
	ar := t.rel.Arity()
	n := 0
	for r := 0; r < t.nrows; r++ {
		if t.data[r*ar+col] == v {
			n++
		}
	}
	return n
}

// matchingRows returns the row ids holding value id v in column col, in
// ascending order. On indexed tables this is a shared CSR subslice
// (zero-allocation); unindexed tables scan.
func (t *Table) matchingRows(col int, v int32) []int32 {
	if v < 0 {
		return nil
	}
	if t.indexed {
		t.ensureFrozen()
		return t.cols[col].postings(v)
	}
	ar := t.rel.Arity()
	var out []int32
	for r := 0; r < t.nrows; r++ {
		if t.data[r*ar+col] == v {
			out = append(out, int32(r))
		}
	}
	return out
}

// MatchingIndexes returns the indexes of tuples whose column col holds
// value v, ascending. On a frozen indexed table the result is a shared
// CSR posting slice; callers must not modify it.
func (t *Table) MatchingIndexes(col int, v string) []int32 {
	return t.matchingRows(col, t.lookupVal(v))
}

// Contains reports whether the exact tuple is present. On the frozen
// store this is allocation-free: probe values intern through read-only
// lookups into a stack scratch row, and the dedupe set is probed by row
// hash with direct value comparison.
func (t *Table) Contains(tp Tuple) bool {
	if len(tp) != t.rel.Arity() {
		return false
	}
	var buf [maxInlineArity]int32
	ids := buf[:0]
	if len(tp) > maxInlineArity {
		ids = make([]int32, 0, len(tp))
	}
	for _, v := range tp {
		id, ok := t.syms.Lookup(v)
		if !ok {
			return false
		}
		ids = append(ids, id)
	}
	return t.set.lookup(t, ids) >= 0
}

// containsInterned is Contains over already-interned values (ids from
// this table's own symbol space).
func (t *Table) containsInterned(vals []int32) bool {
	for _, v := range vals {
		if v < 0 {
			return false
		}
	}
	return t.set.lookup(t, vals) >= 0
}

// Tuples returns every tuple in insertion order. The rows are
// materialized from the columnar store into one string slab per call;
// callers must not modify the result. Prefer ForEachTuple when streaming.
func (t *Table) Tuples() []Tuple {
	out := make([]Tuple, t.nrows)
	slab := make([]string, t.nrows*t.rel.Arity())
	ar := t.rel.Arity()
	for r := range out {
		out[r] = t.materialize(r, slab[r*ar:r*ar+ar:r*ar+ar])
	}
	return out
}

// ForEachTuple streams the tuples in insertion order without building the
// full slice; returning false stops the iteration. The yielded tuple is
// freshly materialized and may be retained.
func (t *Table) ForEachTuple(fn func(Tuple) bool) {
	for r := 0; r < t.nrows; r++ {
		if !fn(t.materialize(r, nil)) {
			return
		}
	}
}

// TuplesWith returns the tuples matching every (column, value)
// requirement, in row order: AppendRowsWith over the interned requirement,
// materialized. Requirements on columns the relation lacks are ignored.
func (t *Table) TuplesWith(req map[int]string) []Tuple {
	cols := make([]int, 0, len(req))
	for c := range req {
		if c >= 0 && c < t.rel.Arity() {
			cols = append(cols, c)
		}
	}
	slices.Sort(cols)
	vals := make([]int32, len(cols))
	for k, c := range cols {
		vals[k] = t.lookupVal(req[c])
	}
	return t.materializeRows(t.AppendRowsWith(nil, cols, vals))
}

// AppendRowsWith appends to dst the ids of the rows whose column cols[k]
// holds value id vals[k] for every k, in ascending row order, and returns
// the extended slice. It counts one lookup and probes the most selective
// column (smallest posting list, ties by column number), counting that
// posting as scanned; with no requirement every row is scanned and
// appended.
func (t *Table) AppendRowsWith(dst []int32, cols []int, vals []int32) []int32 {
	t.stats.lookups.Add(1)
	if len(cols) == 0 {
		t.stats.scanned.Add(int64(t.nrows))
		for r := 0; r < t.nrows; r++ {
			dst = append(dst, int32(r))
		}
		return dst
	}
	best, bestLen := 0, -1
	for k, c := range cols {
		n := t.countMatching(c, vals[k])
		if bestLen == -1 || n < bestLen || n == bestLen && c < cols[best] {
			best, bestLen = k, n
		}
	}
	if t.indexed {
		t.stats.indexHits.Add(1)
	}
	probe := t.matchingRows(cols[best], vals[best])
	t.stats.scanned.Add(int64(len(probe)))
	ar := t.rel.Arity()
next:
	for _, r := range probe {
		base := int(r) * ar
		for k, c := range cols {
			if k != best && t.data[base+c] != vals[k] {
				continue next
			}
		}
		dst = append(dst, r)
	}
	return dst
}

// TuplesContaining returns the tuples holding value v in any column,
// deduplicated, in insertion order: AppendRowsContaining, materialized.
func (t *Table) TuplesContaining(v string) []Tuple {
	return t.materializeRows(t.AppendRowsContaining(nil, t.lookupVal(v)))
}

// AppendRowsContaining appends to dst the ids of the rows holding value id
// v in any column, ascending and without repeats, and returns the extended
// slice. It counts one lookup; an indexed table answers from its postings
// and counts the rows appended as scanned, an unindexed one scans every
// column of every row.
func (t *Table) AppendRowsContaining(dst []int32, v int32) []int32 {
	t.stats.lookups.Add(1)
	ar := t.rel.Arity()
	if !t.indexed {
		t.stats.scanned.Add(int64(t.nrows * ar))
		if v < 0 {
			return dst
		}
		for r := 0; r < t.nrows; r++ {
			if slices.Contains(t.row(r), v) {
				dst = append(dst, int32(r))
			}
		}
		return dst
	}
	t.stats.indexHits.Add(1)
	if v < 0 {
		return dst
	}
	t.ensureFrozen()
	base, lists := len(dst), 0
	for c := 0; c < ar; c++ {
		if p := t.cols[c].postings(v); len(p) > 0 {
			dst = append(dst, p...)
			lists++
		}
	}
	if lists > 1 {
		// Merge the columns' postings back into row order and drop rows
		// holding v in several columns.
		slices.Sort(dst[base:])
		dst = dst[:base+len(slices.Compact(dst[base:]))]
	}
	t.stats.scanned.Add(int64(len(dst) - base))
	return dst
}

// Row returns the interned values of row r, ids of the instance's symbol
// table: a view into the table's storage that callers must not modify.
func (t *Table) Row(r int32) []int32 { return t.row(int(r)) }

// materializeRows externalizes the rows, in order, into one string slab;
// nil when there are none.
func (t *Table) materializeRows(rows []int32) []Tuple {
	if len(rows) == 0 {
		return nil
	}
	ar := t.rel.Arity()
	out := make([]Tuple, len(rows))
	slab := make([]string, len(rows)*ar)
	for i, r := range rows {
		out[i] = t.materialize(int(r), slab[i*ar:i*ar+ar:i*ar+ar])
	}
	return out
}
