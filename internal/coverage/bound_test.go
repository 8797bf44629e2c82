package coverage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

// Property: a candidate the bounded parallel ScoreBatch prunes is never
// one the unbounded serial engine would have kept. The serial reference
// scores every candidate exactly, then applies the caller's keep rule —
// score strictly above the floor, top keep by (score desc, index asc),
// the stable-sort trim every beam learner uses. Randomized coverage
// tables, worker counts, floors and widths are driven by quick.Check.

// randomCoverage fabricates a coverage oracle: candidate ci covers
// example "kind(j)" iff the seeded table says so. Concurrent reads only.
type randomCoverage struct {
	pos, neg [][]bool // [candidate][example]
}

func newRandomCoverage(rng *rand.Rand, cands, npos, nneg int) *randomCoverage {
	rc := &randomCoverage{}
	for ci := 0; ci < cands; ci++ {
		p := make([]bool, npos)
		for j := range p {
			p[j] = rng.Intn(3) > 0 // dense positives
		}
		n := make([]bool, nneg)
		for j := range n {
			n[j] = rng.Intn(3) == 0 // sparser negatives
		}
		rc.pos = append(rc.pos, p)
		rc.neg = append(rc.neg, n)
	}
	return rc
}

func (rc *randomCoverage) fn(c *logic.Clause, e logic.Atom) bool {
	var ci, j int
	fmt.Sscanf(c.Head.Args[0].Name, "c%d", &ci)
	fmt.Sscanf(e.Args[0].Name, "x%d", &j)
	if e.Pred == "pos" {
		return rc.pos[ci][j]
	}
	return rc.neg[ci][j]
}

func boundAtoms(pred string, n int) []logic.Atom {
	out := make([]logic.Atom, n)
	for i := range out {
		out[i] = logic.GroundAtom(pred, fmt.Sprintf("x%d", i))
	}
	return out
}

// boundCandidates builds one distinguishable clause per candidate (the
// oracle reads the index back out of the head constant).
func boundCandidates(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{Clause: logic.MustParseClause(fmt.Sprintf("h(c%d) :- b(c%d).", i, i))}
	}
	return out
}

// keepSet is the caller's beam selection over exact scores: indexes of
// the top keep candidates with score strictly above floor, stable by
// index on ties.
func keepSet(scores []Score, floor, keep int) map[int]bool {
	type cs struct{ idx, score int }
	var viable []cs
	for i, s := range scores {
		if sc := s.P - s.N; floor == NoBound || sc > floor {
			viable = append(viable, cs{i, sc})
		}
	}
	sort.SliceStable(viable, func(a, b int) bool { return viable[a].score > viable[b].score })
	if len(viable) > keep {
		viable = viable[:keep]
	}
	out := map[int]bool{}
	for _, v := range viable {
		out[v.idx] = true
	}
	return out
}

func TestEngineGlobalBoundNeverPrunesKeptCandidates(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ncands := 1 + rng.Intn(12)
		npos := 1 + rng.Intn(30)
		nneg := 1 + rng.Intn(30)
		keep := 1 + rng.Intn(4)
		floor := NoBound
		if rng.Intn(2) == 0 {
			floor = rng.Intn(npos+4) - 2
		}
		workers := []int{4, 8}[rng.Intn(2)]

		rc := newRandomCoverage(rng, ncands, npos, nneg)
		cands := boundCandidates(ncands)
		pos := boundAtoms("pos", npos)
		neg := boundAtoms("neg", nneg)

		// Unbounded serial reference: exact scores for every candidate.
		exact := NewEngine(perPair(rc.fn), newNop, 1, nil, nil).ScoreBatch(cands, pos, neg, NoBound, 0)
		kept := keepSet(exact, floor, keep)

		// Bounded parallel run under test.
		got := NewEngine(perPair(rc.fn), newNop, workers, nil, nil).ScoreBatch(cands, pos, neg, floor, keep)
		for i, s := range got {
			if s.Pruned && kept[i] {
				t.Logf("seed %d: candidate %d pruned but the serial engine keeps it (score %d, floor %d, keep %d)",
					seed, i, exact[i].P-exact[i].N, floor, keep)
				return false
			}
			if !s.Pruned && (s.P != exact[i].P || s.N != exact[i].N) {
				t.Logf("seed %d: candidate %d complete but counts diverge: %d/%d vs %d/%d",
					seed, i, s.P, s.N, exact[i].P, exact[i].N)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
