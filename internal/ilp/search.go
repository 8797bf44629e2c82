package ilp

import "repro/internal/logic"

// The seeded example sampler Castor, ProGolem and Golem share.

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
