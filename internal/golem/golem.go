// Package golem implements Golem (Muggleton & Feng 1990), the bottom-up
// learner of §6.3: clauses are learned by taking the relative least general
// generalization (rlgg) of the saturations of pairs of positive examples
// and greedily absorbing further examples while the score improves
// (Algorithm 2 of the paper).
//
// The lgg of two clauses pairs compatible literals (same predicate) and
// anti-unifies their arguments, mapping each distinct pair of terms to one
// variable. The result grows as |C1|·|C2|, which is why Golem does not
// scale (§6.3) — the implementation reduces each rlgg θ-subsumption-wise to
// keep the tests tractable, and prunes literals that are not
// head-connected.
package golem

import (
	"strconv"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/subsume"
)

// Learner is the Golem algorithm.
type Learner struct{}

// New returns a Golem learner.
func New() *Learner { return &Learner{} }

// Name implements ilp.Learner.
func (l *Learner) Name() string { return "Golem" }

// maxRlggLiterals aborts generalizations whose clause size explodes; Golem
// cannot represent such clauses practically (§6.3).
const maxRlggLiterals = 4096

// Learn implements ilp.Learner.
func (l *Learner) Learn(prob *ilp.Problem, params ilp.Params) (*logic.Definition, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	tester := ilp.NewTester(prob, params)
	bld := ilp.NewBuilder(prob, nil)
	rng := ilp.NewRand(params.Seed)
	learn := func(uncovered []logic.Atom) (*logic.Clause, error) {
		return l.learnClause(prob, params, tester, bld, rng, uncovered), nil
	}
	return ilp.Cover("golem", prob, params, tester, learn)
}

// learnClause is Algorithm 2: rlggs of sampled example pairs, then greedy
// extension.
func (l *Learner) learnClause(prob *ilp.Problem, params ilp.Params, tester *ilp.Tester, bld *ilp.Builder, rng *ilp.Rand, uncovered []logic.Atom) *logic.Clause {
	run := params.Obs
	prov := run.Prov()
	k := params.Sample
	if k < 2 {
		k = 2
	}
	sample := ilp.SampleAtoms(rng, uncovered, k+1)
	if len(sample) < 2 {
		return nil
	}
	// Each example is saturated once per clause search, however many pairs
	// and extensions it takes part in.
	sats := make(map[string]*logic.Clause) // example key → saturation
	satIDs := make(map[string]uint64)      // example key → seed_bottom node
	saturate := func(e logic.Atom) *logic.Clause {
		key := e.Key()
		if sat, ok := sats[key]; ok {
			return sat
		}
		var sb *obs.Span
		if run.Spanning() {
			sb = run.StartSpan("bottom_clause", obs.F("seed", e.String()))
		}
		sat := bld.Build(e, params, nil)
		sb.Annotate(obs.F("literals", len(sat.Body)))
		sb.End()
		run.Inc(obs.CBottomClauses)
		run.Add(obs.CBottomLiterals, int64(len(sat.Body)))
		sats[key] = sat
		if prov.Enabled() {
			satIDs[key] = prov.Node(obs.ProvNode{
				Step: obs.StepSeedBottom, Seed: e.String(),
				Clause: sat.String(), Literals: len(sat.Body),
				Pos: -1, Neg: -1, Score: -1, Disposition: obs.DispKept,
			})
		}
		return sat
	}

	type cand struct {
		clause   *logic.Clause
		pos, neg *coverage.Bitset
		score    int
	}
	var best *cand
	sg := run.StartSpan("rlgg_generation", obs.F("sample", len(sample)))
	// Pairwise rlggs are independent: generate them serially (each
	// saturation is built once and shared across pairs), then score the
	// whole batch concurrently. No bound here — AcceptClause needs exact
	// counts while best is still unknown.
	var pairs []coverage.Candidate
	type pairProv struct {
		parents []uint64
		seed    string
	}
	var pmeta []pairProv // aligned with pairs; built only when recording
	for i := 0; i < len(sample); i++ {
		for j := i + 1; j < len(sample); j++ {
			g := RLGG(saturate(sample[i]), saturate(sample[j]))
			if g == nil {
				continue
			}
			g = tidy(run, g)
			pairs = append(pairs, coverage.Candidate{Clause: g})
			if prov.Enabled() {
				pmeta = append(pmeta, pairProv{
					parents: []uint64{satIDs[sample[i].Key()], satIDs[sample[j].Key()]},
					seed:    sample[j].String(),
				})
			}
		}
	}
	var bestID uint64
	for pi, s := range tester.ScoreBatch(pairs, uncovered, prob.Neg, coverage.NoBound, 0) {
		accepted := ilp.AcceptClause(params, s.P, s.N)
		sc := s.P - s.N
		better := accepted && (best == nil || sc > best.score)
		if prov.Enabled() {
			disp := obs.DispPrunedScore
			if better {
				disp = obs.DispKept
			}
			id := prov.Node(obs.ProvNode{
				Parents: pmeta[pi].parents, Step: obs.StepRLGG, Seed: pmeta[pi].seed,
				Clause: s.Clause.String(), Literals: len(s.Clause.Body),
				Pos: s.P, Neg: s.N, Score: float64(sc), Disposition: disp,
			})
			if better {
				bestID = id
			}
		}
		if better {
			best = &cand{clause: s.Clause, pos: s.Pos, neg: s.Neg, score: sc}
		}
	}
	sg.Annotate(obs.F("rlggs", len(pairs)))
	sg.End()
	if best == nil {
		return nil
	}
	// Greedy extension: absorb more positives while the score improves.
	// Each rlgg generalizes the current best, so its covered sets seed the
	// §7.5.4 knowns, and best.score is a sound early-termination bound: an
	// abandoned candidate cannot improve the score, so it cannot win —
	// though it must still pass AcceptClause when it does beat the bound.
	remaining := exclude(uncovered, sample)
	se := run.StartSpan("greedy_extension")
	for _, e := range ilp.SampleAtoms(rng, remaining, k) {
		g := RLGG(best.clause, saturate(e))
		if g == nil {
			continue
		}
		g = tidy(run, g)
		batch := []coverage.Candidate{{Clause: g, KnownPos: best.pos, KnownNeg: best.neg}}
		s := tester.ScoreBatch(batch, uncovered, prob.Neg, best.score, 1)[0]
		node := func(pos, neg int, score float64, disp string) uint64 {
			return prov.Node(obs.ProvNode{
				Parents: []uint64{bestID, satIDs[e.Key()]}, Step: obs.StepGreedyExtension,
				Seed: e.String(), Clause: s.Clause.String(), Literals: len(s.Clause.Body),
				Pos: pos, Neg: neg, Score: score, Disposition: disp,
			})
		}
		if s.Pruned {
			if prov.Enabled() {
				node(-1, -1, -1, obs.DispPrunedBudget)
			}
			continue
		}
		if !ilp.AcceptClause(params, s.P, s.N) {
			if prov.Enabled() {
				node(s.P, s.N, float64(s.P-s.N), obs.DispPrunedScore)
			}
			continue
		}
		if sc := s.P - s.N; sc > best.score {
			best = &cand{clause: s.Clause, pos: s.Pos, neg: s.Neg, score: sc}
			if prov.Enabled() {
				bestID = node(s.P, s.N, float64(sc), obs.DispKept)
			}
		} else if prov.Enabled() {
			node(s.P, s.N, float64(sc), obs.DispPrunedScore)
		}
	}
	se.Annotate(obs.F("score", best.score))
	se.End()
	return best.clause
}

// reduceCutoff bounds the clause size on which full θ-subsumption
// reduction is attempted; beyond it only the cheap pruning applies. Golem's
// rlggs grow as the literal product, and reducing a thousand-literal clause
// costs more than it saves.
const reduceCutoff = 150

// tidy prunes disconnected literals, then reduces the clause when it is
// small enough for reduction to pay off.
func tidy(run *obs.Run, c *logic.Clause) *logic.Clause {
	c = logic.PruneNotHeadConnected(c)
	if len(c.Body) > reduceCutoff {
		return c
	}
	return subsume.ReduceR(run, c)
}

// RLGG computes the relative least general generalization of two
// saturations (ground bottom clauses): the lgg of the clauses. It returns
// nil when the heads are incompatible or the result explodes past
// maxRlggLiterals. Theorem 6.4: this operator is schema independent.
func RLGG(c1, c2 *logic.Clause) *logic.Clause {
	lt := newLggTerms()
	head, ok := lggAtoms(c1.Head, c2.Head, lt)
	if !ok {
		return nil
	}
	out := &logic.Clause{Head: head}
	for _, a1 := range c1.Body {
		for _, a2 := range c2.Body {
			if a, ok := lggAtoms(a1, a2, lt); ok {
				out.Body = append(out.Body, a)
				if len(out.Body) > maxRlggLiterals {
					return nil
				}
			}
		}
	}
	return dedupBody(out)
}

// lggTerms maps pairs of terms to their generalization: equal terms stay,
// distinct pairs map to one variable per pair (Plotkin's lgg).
type lggTerms struct {
	pairs map[[2]logic.Term]logic.Term
	next  int
}

func newLggTerms() *lggTerms {
	return &lggTerms{pairs: make(map[[2]logic.Term]logic.Term)}
}

func (lt *lggTerms) lgg(a, b logic.Term) logic.Term {
	if a == b {
		return a
	}
	key := [2]logic.Term{a, b}
	if v, ok := lt.pairs[key]; ok {
		return v
	}
	v := logic.Var(lggVarName(lt.next))
	lt.next++
	lt.pairs[key] = v
	return v
}

func lggVarName(n int) string { return "G" + strconv.Itoa(n) }

// lggAtoms generalizes two compatible atoms.
func lggAtoms(a, b logic.Atom, lt *lggTerms) (logic.Atom, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return logic.Atom{}, false
	}
	args := make([]logic.Term, len(a.Args))
	for i := range a.Args {
		args[i] = lt.lgg(a.Args[i], b.Args[i])
	}
	return logic.NewAtom(a.Pred, args...), true
}

// dedupBody removes syntactically duplicate body literals.
func dedupBody(c *logic.Clause) *logic.Clause {
	seen := make(map[string]bool, len(c.Body))
	out := c.Body[:0]
	for _, a := range c.Body {
		k := a.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	c.Body = out
	return c
}

// LGGDefinitionOfSet folds RLGG over a set of saturations:
// lgg({C1,…,Cn}) computed pairwise (the operator is associative and
// commutative up to renaming).
func LGGDefinitionOfSet(sats []*logic.Clause) *logic.Clause {
	if len(sats) == 0 {
		return nil
	}
	cur := sats[0]
	for _, s := range sats[1:] {
		cur = RLGG(cur, s)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// exclude returns pool minus the given atoms.
func exclude(pool, drop []logic.Atom) []logic.Atom {
	dropped := make(map[string]bool, len(drop))
	for _, a := range drop {
		dropped[a.Key()] = true
	}
	var out []logic.Atom
	for _, a := range pool {
		if !dropped[a.Key()] {
			out = append(out, a)
		}
	}
	return out
}
