// Package coverage is the coverage-evaluation engine of §7.5.3–7.5.4: a
// word-packed bitset replacing []bool coverage vectors, a clause-keyed memo
// cache so the covering loop and negative-reduction re-tests stop
// recomputing identical clauses, and batched cross-candidate scoring on
// persistent helper goroutines with an early-termination bound.
//
// The package is learner-agnostic: it evaluates coverage through a CoverFunc
// provided by ilp.Tester, so both coverage modes (direct database
// evaluation and θ-subsumption against ground bottom clauses) ride on the
// same engine.
package coverage

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitset is a fixed-length set of example indexes, word-packed. The zero
// value is an empty set of length 0; nil is a valid empty set for reads.
type Bitset struct {
	n     int
	words []uint64
}

// New returns an empty bitset over n examples.
func New(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromBools packs a []bool coverage vector.
func FromBools(bs []bool) *Bitset {
	out := New(len(bs))
	for i, b := range bs {
		if b {
			out.Set(i)
		}
	}
	return out
}

// Len returns the number of example slots.
func (b *Bitset) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Get reports whether index i is set. Out-of-range indexes (and nil
// bitsets) read as false, so a too-short known-covered vector degrades to
// "unknown" instead of panicking in a worker goroutine.
func (b *Bitset) Get(i int) bool {
	if b == nil || i < 0 || i >= b.n {
		return false
	}
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set marks index i. It panics on out-of-range writes: silently widening
// would desynchronize the set from its example slice.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("coverage: Set(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Count returns the number of set indexes (population count).
func (b *Bitset) Count() int {
	if b == nil {
		return 0
	}
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// And returns the intersection as a new bitset of length min(|b|, |o|).
func (b *Bitset) And(o *Bitset) *Bitset {
	n := b.Len()
	if o.Len() < n {
		n = o.Len()
	}
	out := New(n)
	for i := range out.words {
		out.words[i] = b.words[i] & o.words[i]
	}
	out.clearTail()
	return out
}

// OrInto merges o into b in place (b |= o). Bits of o beyond b's length are
// ignored.
func (b *Bitset) OrInto(o *Bitset) {
	if b == nil || o == nil {
		return
	}
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] |= o.words[i]
	}
	b.clearTail()
}

// clearTail zeroes bits beyond n in the last word, keeping Count exact
// after word-level operations.
func (b *Bitset) clearTail() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	if b == nil {
		return nil
	}
	out := &Bitset{n: b.n, words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// Equal reports whether the two bitsets have the same length and members.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.Len() != o.Len() {
		return false
	}
	for i := 0; i < b.Len(); i += wordBits {
		w := i / wordBits
		var bw, ow uint64
		if b != nil {
			bw = b.words[w]
		}
		if o != nil {
			ow = o.words[w]
		}
		if bw != ow {
			return false
		}
	}
	return true
}

// Bools unpacks the bitset into a []bool vector.
func (b *Bitset) Bools() []bool {
	out := make([]bool, b.Len())
	for i := range out {
		out[i] = b.Get(i)
	}
	return out
}
