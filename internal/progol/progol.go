// Package progol implements a Progol-style learner in the fashion of the
// Aleph system the paper benchmarks (§9.1.2): saturate one uncovered
// positive example into a bottom clause, then search top-down through the
// clauses whose bodies are subsets of the bottom clause's literals, bounded
// by clauselength.
//
// Two configurations reproduce the paper's systems:
//
//   - NewAlephProgol(): best-first search over an open list (Aleph's
//     default Progol emulation);
//   - NewAlephFOIL(): openlist = 1, i.e. greedy hill climbing (the paper's
//     "Aleph-FOIL" configuration, §9.1.2).
//
// Both inherit Progol's schema dependence: the hypothesis space is bounded
// by clause length over one schema's literals (Theorem 5.1) and by the
// bottom clause's depth bound (Lemma 6.3).
package progol

import (
	"slices"
	"sort"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Learner is the Aleph-style saturate-then-search algorithm.
type Learner struct {
	name string
	// openList bounds how many open states best-first search keeps; 1 is
	// greedy hill climbing.
	openList int
	// maxNodes bounds the number of expanded states per clause search.
	maxNodes int
}

// NewAlephProgol returns the best-first configuration (Aleph default).
func NewAlephProgol() *Learner {
	return &Learner{name: "Aleph-Progol", openList: 64, maxNodes: 600}
}

// NewAlephFOIL returns the greedy configuration (openlist=1), the paper's
// Aleph-FOIL.
func NewAlephFOIL() *Learner {
	return &Learner{name: "Aleph-FOIL", openList: 1, maxNodes: 600}
}

// New returns a custom configuration.
func New(name string, openList, maxNodes int) *Learner {
	return &Learner{name: name, openList: openList, maxNodes: maxNodes}
}

// Name implements ilp.Learner.
func (l *Learner) Name() string { return l.name }

// Learn implements ilp.Learner.
func (l *Learner) Learn(prob *ilp.Problem, params ilp.Params) (*logic.Definition, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	tester := ilp.NewTester(prob, params)
	bld := ilp.NewBuilder(prob, nil)
	learn := func(uncovered []logic.Atom) (*logic.Clause, error) {
		return l.learnClause(prob, params, tester, bld, uncovered), nil
	}
	return ilp.Cover(l.name, prob, params, tester, learn)
}

// state is one node of the search: a subset of bottom-clause literal
// indexes, kept sorted for canonical identity.
type state struct {
	picks  []int
	p, n   int
	score  float64
	provID uint64 // provenance node of this state's clause, 0 when off
}

func (s *state) key() string {
	b := make([]byte, 0, len(s.picks)*3)
	for _, i := range s.picks {
		b = append(b, byte(i), byte(i>>8), ',')
	}
	return string(b)
}

// learnClause saturates the first uncovered example and searches subsets of
// the bottom clause top-down.
func (l *Learner) learnClause(prob *ilp.Problem, params ilp.Params, tester *ilp.Tester, bld *ilp.Builder, uncovered []logic.Atom) *logic.Clause {
	prov := params.Obs.Prov()
	seed := uncovered[0]
	bottom := ilp.Variablize(prob, bld.Build(seed, params, nil))
	if len(bottom.Body) == 0 {
		return nil
	}
	var bottomID uint64
	if prov.Enabled() {
		bottomID = prov.Node(obs.ProvNode{
			Step: obs.StepSeedBottom, Seed: seed.String(),
			Clause: bottom.String(), Literals: len(bottom.Body),
			Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept,
		})
	}
	// A child needs every picked literal connected to the head through the
	// picks: HeadConnected of the bottom clause's variables under the picks
	// as a keep mask marks them all. keep, connected and reach are its
	// scratch.
	vars := logic.NewClauseVars(bottom)
	keep, connected := make([]bool, len(bottom.Body)), make([]bool, len(bottom.Body))
	reach := make([]bool, vars.NumVars())
	build := func(picks []int) *logic.Clause {
		body := make([]logic.Atom, len(picks))
		for i, k := range picks {
			body[i] = bottom.Body[k]
		}
		return &logic.Clause{Head: bottom.Head, Body: body}
	}
	// evaluate fills in coverage and score; it reports false (and skips the
	// negative count) when the state already fails MinPos, since such
	// states can only shrink further under specialization.
	evaluate := func(s *state) bool {
		c := build(s.picks)
		s.p = tester.Count(c, uncovered, nil)
		if s.p < params.MinPos {
			return false
		}
		s.n = tester.Count(c, prob.Neg, nil)
		// Aleph's default compression-style evaluation: positives covered
		// minus negatives covered minus clause length.
		s.score = float64(s.p-s.n) - float64(len(s.picks))
		return true
	}

	root := &state{provID: bottomID}
	if !evaluate(root) {
		return nil
	}
	open := []*state{root}
	seen := map[string]bool{root.key(): true}
	var best *state
	expanded := 0

	for len(open) > 0 && expanded < l.maxNodes {
		// Pop the best-scoring open state.
		sort.SliceStable(open, func(i, j int) bool { return open[i].score > open[j].score })
		cur := open[0]
		open = open[1:]
		expanded++

		if cur.p >= params.MinPos && ilp.AcceptClause(params, cur.p, cur.n) && len(cur.picks) > 0 {
			if best == nil || cur.score > best.score {
				best = cur
			}
			if cur.n == 0 && (l.openList == 1 || cur.p == len(uncovered)) {
				// A consistent clause; greedy stops at the first one, and
				// nothing can beat one that also covers every positive.
				break
			}
		}
		if params.ClauseLength > 0 && len(cur.picks)+1 >= params.ClauseLength {
			continue
		}
		// Expand: add any unused bottom literal that keeps the clause
		// head-connected. Pick sets are kept sorted so each subset has one
		// canonical key in seen.
		var children []*state
		for k := 0; k < len(bottom.Body); k++ {
			i, picked := slices.BinarySearch(cur.picks, k)
			if picked {
				continue
			}
			// Clip: siblings must never write into their parent's picks.
			picks := slices.Insert(slices.Clip(cur.picks), i, k)
			child := &state{picks: picks}
			ck := child.key()
			if seen[ck] {
				continue
			}
			seen[ck] = true
			clear(keep)
			for _, k := range picks {
				keep[k] = true
			}
			vars.HeadConnected(keep, connected, reach)
			if !slices.Equal(connected, keep) {
				continue
			}
			if !evaluate(child) {
				if prov.Enabled() {
					c := build(child.picks)
					prov.Node(obs.ProvNode{
						Parents: []uint64{cur.provID}, Step: obs.StepBeamRefine, Seed: seed.String(),
						Clause: c.String(), Literals: len(c.Body),
						Pos: child.p, Neg: -1, Score: -1, Disposition: obs.DispPrunedScore,
					})
				}
				continue // specializing further only shrinks coverage
			}
			if prov.Enabled() {
				c := build(child.picks)
				child.provID = prov.Node(obs.ProvNode{
					Parents: []uint64{cur.provID}, Step: obs.StepBeamRefine, Seed: seed.String(),
					Clause: c.String(), Literals: len(c.Body),
					Pos: child.p, Neg: child.n, Score: child.score, Disposition: obs.DispKept,
				})
			}
			children = append(children, child)
		}
		open = append(open, children...)
		// Trim the open list.
		if len(open) > l.openList {
			sort.SliceStable(open, func(i, j int) bool { return open[i].score > open[j].score })
			open = open[:l.openList]
		}
	}
	if best == nil {
		return nil
	}
	return build(best.picks)
}
