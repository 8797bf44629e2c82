package ilp

import "repro/internal/logic"

// Search helpers the learners share: the seeded example sampler of Castor,
// ProGolem and Golem, and the removal-schedule runner of Castor's and
// ProGolem's negative reductions.

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

// Step is one move of a greedy removal schedule, the shape of Castor's and
// ProGolem's negative reductions: at position pos of clause cur it returns
// the next candidate to check (cur without some of its literals), the
// position the schedule goes on from in cand when the check passes and
// the one it goes on from in cur when the check fails. ok false ends the
// schedule at cur.
type Step func(cur *logic.Clause, pos int) (cand *logic.Clause, pass, fail int, ok bool)

// Reduce runs the removal schedule from position start of c and returns
// the clause it ends at: the end state of checking candidate after
// candidate, with fewer checks. check must be monotone under removal: a
// candidate whose body is a subsequence of a failed candidate's body
// fails too (coverage only grows as literals go, §7.5.4). So:
//   - a candidate some failed candidate's body contains fails unchecked,
//     and the schedule goes on from its fail state;
//   - Reduce follows the pass states of the other candidates to the end of
//     the schedule and checks only that chain's last candidate, whose body
//     every candidate before it contains: its pass vouches for them all;
//   - when that check fails, it bisects the chain for the first failing
//     candidate and goes on from that candidate's fail state.
func Reduce(c *logic.Clause, start int, step Step, check func(*logic.Clause) bool) *logic.Clause {
	// link is one candidate of a chain, the clause it was drawn from and
	// the position its fail state goes on from.
	type link struct {
		cur, cand *logic.Clause
		fail      int
	}
	var failed []*logic.Clause
	refuted := func(cand *logic.Clause) bool {
		for _, f := range failed {
			if subsequence(cand.Body, f.Body) {
				return true
			}
		}
		return false
	}
	var chain []link
	cur, pos := c, start
	for {
		chain = chain[:0]
		for at, p := cur, pos; ; {
			cand, pass, fail, ok := step(at, p)
			if !ok {
				break
			}
			if refuted(cand) {
				p = fail
				continue
			}
			chain = append(chain, link{cur: at, cand: cand, fail: fail})
			at, p = cand, pass
		}
		if len(chain) == 0 {
			return cur
		}
		last := len(chain) - 1
		if check(chain[last].cand) {
			return chain[last].cand
		}
		failed = append(failed, chain[last].cand)
		// Links before lo pass; link hi fails.
		lo, hi := 0, last
		for lo < hi {
			mid := (lo + hi) / 2
			if check(chain[mid].cand) {
				lo = mid + 1
			} else {
				failed = append(failed, chain[mid].cand)
				hi = mid
			}
		}
		cur, pos = chain[hi].cur, chain[hi].fail
	}
}

// subsequence reports whether a is b with some atoms left out, in order.
func subsequence(a, b []logic.Atom) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && !b[j].Equal(x) {
			j++
		}
		if j == len(b) {
			return false
		}
		j++
	}
	return true
}
