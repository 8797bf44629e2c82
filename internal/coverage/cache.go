package coverage

import (
	"container/list"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/logic"
)

// DefaultCacheSize bounds the memo cache; each entry is one bitset (a few
// words per example set), so thousands of entries stay well under a
// megabyte on the paper's workloads.
const DefaultCacheSize = 4096

// Cache memoizes whole CoveredSet results, keyed by the canonical clause
// form plus a digest of the example set (§7.5.4). The covering loop and
// the learners' negative-reduction re-tests evaluate the same clause over
// the same example slice repeatedly; the cache answers those without
// touching the store or the subsumption engine. LRU-bounded and safe for
// concurrent use.
type Cache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // key → element whose Value is *cacheEntry
}

type cacheEntry struct {
	key string
	set *Bitset
}

// NewCache returns a cache bounded to capacity entries; capacity <= 0
// falls back to DefaultCacheSize.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// Key builds the cache key for evaluating clause c over the example set
// identified by setKey.
func (ca *Cache) Key(c *logic.Clause, setKey string) string {
	return logic.CanonicalKey(c) + "\x00" + setKey
}

// Get returns a copy of the memoized bitset for the key, if present. A
// copy, because callers mutate coverage sets (OrInto during the covering
// loop) and must not corrupt the cached value.
func (ca *Cache) Get(key string) (*Bitset, bool) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	el, ok := ca.items[key]
	if !ok {
		return nil, false
	}
	ca.order.MoveToFront(el)
	return el.Value.(*cacheEntry).set.Clone(), true
}

// Put memoizes the bitset under the key, evicting the least recently used
// entry when full. The cache clones the value so later caller mutations
// cannot leak in.
func (ca *Cache) Put(key string, set *Bitset) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if el, ok := ca.items[key]; ok {
		el.Value.(*cacheEntry).set = set.Clone()
		ca.order.MoveToFront(el)
		return
	}
	ca.items[key] = ca.order.PushFront(&cacheEntry{key: key, set: set.Clone()})
	if ca.order.Len() > ca.cap {
		oldest := ca.order.Back()
		ca.order.Remove(oldest)
		delete(ca.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of memoized entries.
func (ca *Cache) Len() int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.order.Len()
}

// SetKey digests an example slice into a stable identifier for cache keys.
// Example sets inside one Learn call are slices of the problem's Pos/Neg,
// so hashing the ground-atom keys (plus length) identifies the set; FNV
// collisions across *different* sets of the same learner run are the only
// correctness risk, and the 64-bit space over at most a few thousand
// distinct sets makes that negligible — and an uncovered-set slice that
// shrinks each covering iteration always changes length, which is hashed
// too. The hash runs FNV-1a over each example's Atom.Key bytes and a NUL
// (the predicate, then every argument behind a NUL separator), fed
// straight from the atom's strings: no key is built per example.
func SetKey(examples []logic.Atom) string {
	h := uint64(fnvOffset)
	for _, e := range examples {
		h = fnvString(h, e.Pred)
		for _, t := range e.Args {
			h *= fnvPrime // a NUL byte: h ^ 0 == h
			h = fnvString(h, t.Name)
		}
		h *= fnvPrime
	}
	return strconv.Itoa(len(examples)) + ":" + strconv.FormatUint(h, 16)
}

// digestMemo remembers the SetKey of every example list an engine has
// digested, so a list the learner passes again (the negatives on every
// call, the uncovered positives on every round of a covering iteration)
// costs one identity check per atom instead of hashing every name. A list
// is identified atom by atom by its argument arrays and predicates: the
// memo holds each array it has seen, which keeps it alive, and the
// collector never moves heap objects, so while the memo lives an address
// names the one array it held when digested. A backing array reused for
// other atoms therefore fails the check and is digested afresh. Entries
// are found by the first atom's argument array and the list length. An
// engine serves one learn, which digests about one list per covering
// iteration plus the negatives. Safe for concurrent use.
type digestMemo struct {
	mu      sync.Mutex
	entries map[listHead]*digested
}

// listHead locates a memoized list.
type listHead struct {
	args *logic.Term
	n    int
}

// digested is one memoized list: every atom's identity, in order, and the
// list's SetKey.
type digested struct {
	atoms []atomID
	key   string
}

// atomID identifies one example atom by its argument array, arity and
// predicate.
type atomID struct {
	args  *logic.Term
	arity int
	pred  string
}

func identify(e logic.Atom) atomID {
	return atomID{args: unsafe.SliceData(e.Args), arity: len(e.Args), pred: e.Pred}
}

// key returns SetKey(examples), from the memo when the list was digested
// before.
func (m *digestMemo) key(examples []logic.Atom) string {
	if len(examples) == 0 {
		return SetKey(examples)
	}
	head := listHead{unsafe.SliceData(examples[0].Args), len(examples)}
	m.mu.Lock()
	d := m.entries[head]
	m.mu.Unlock()
	if d != nil && d.matches(examples) {
		return d.key
	}
	d = &digested{atoms: make([]atomID, len(examples)), key: SetKey(examples)}
	for i, e := range examples {
		d.atoms[i] = identify(e)
	}
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[listHead]*digested)
	}
	m.entries[head] = d
	m.mu.Unlock()
	return d.key
}

// matches reports whether examples are, atom by atom, the atoms digested.
func (d *digested) matches(examples []logic.Atom) bool {
	for i, e := range examples {
		if identify(e) != d.atoms[i] {
			return false
		}
	}
	return true
}

// 64-bit FNV-1a parameters, as in hash/fnv.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}
