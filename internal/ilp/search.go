package ilp

import "repro/internal/logic"

// Search helpers the learners share: the seeded example sampler of Castor,
// ProGolem and Golem, and the blocking-atom search of Castor's and
// ProGolem's ARMG.

// Rand is a tiny deterministic PRNG (xorshift), so the learners do not
// pull in math/rand and stay reproducible across Go versions.
type Rand struct{ s uint64 }

// NewRand seeds a generator; seed 0 is taken as 1.
func NewRand(seed int64) *Rand {
	if seed == 0 {
		seed = 1
	}
	return &Rand{s: uint64(seed)}
}

func (r *Rand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// intn returns a value in [0,n).
func (r *Rand) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// SampleAtoms draws up to k distinct atoms of pool, in draw order; k at
// least the pool's size returns a copy of the pool.
func SampleAtoms(r *Rand, pool []logic.Atom, k int) []logic.Atom {
	if k >= len(pool) {
		return append([]logic.Atom(nil), pool...)
	}
	idx := make(map[int]bool, k)
	out := make([]logic.Atom, 0, k)
	for len(out) < k {
		i := r.intn(len(pool))
		if !idx[i] {
			idx[i] = true
			out = append(out, pool[i])
		}
	}
	return out
}

// BlockingAtom returns the least 0-based index i such that the prefix
// clause T ← L1,…,L(i+1) does not cover e, by binary search over the
// monotone prefix-coverage sequence: −1 when c has no body or its head
// alone does not cover e.
func BlockingAtom(tester *Tester, c *logic.Clause, e logic.Atom) int {
	if len(c.Body) == 0 {
		return -1
	}
	lo, hi := 0, len(c.Body) // prefix lengths: lo covers, hi does not
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if tester.Covers(&logic.Clause{Head: c.Head, Body: c.Body[:mid]}, e) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == 0 && !tester.Covers(&logic.Clause{Head: c.Head}, e) {
		return -1
	}
	return hi - 1
}
