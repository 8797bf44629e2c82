// Package foil implements FOIL (Quinlan 1990), the classic top-down
// relational learner the paper analyzes in §5. FOIL follows the covering
// approach and learns each clause greedily: starting from the most general
// clause, it repeatedly adds the body literal with the highest gain until
// the clause covers no negative examples (or the clause-length bound stops
// it). FOIL never backtracks, which is what makes its output schema
// dependent (Example 1.1, Theorem 5.1).
//
// Candidate literals are generated from the schema: every relation, with
// every argument either an already-used variable of a compatible domain or
// a fresh variable, requiring at least one shared variable so clauses stay
// head-connected. Positions over value domains additionally propose the
// constants occurring in that column (FOIL's theory constants) — that is
// how it can learn yearsInProgram(x, 7).
package foil

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/coverage"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
)

// Learner is the FOIL algorithm.
type Learner struct{}

// New returns a FOIL learner.
func New() *Learner { return &Learner{} }

// Name implements ilp.Learner.
func (l *Learner) Name() string { return "FOIL" }

// maxValueConstants caps how many distinct constants are proposed per value
// column, keeping the branching factor bounded on large databases.
const maxValueConstants = 24

// Learn implements ilp.Learner via the covering loop with FOIL's greedy
// clause construction.
func (l *Learner) Learn(prob *ilp.Problem, params ilp.Params) (*logic.Definition, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	tester := ilp.NewTester(prob, params)
	gen := newLiteralGenerator(prob)
	learn := func(uncovered []logic.Atom) (*logic.Clause, error) {
		return l.learnClause(prob, params, tester, gen, uncovered)
	}
	return ilp.Cover("foil", prob, params, tester, learn)
}

// learnClause grows one clause greedily by gain.
func (l *Learner) learnClause(prob *ilp.Problem, params ilp.Params, tester *ilp.Tester, gen *literalGenerator, uncovered []logic.Atom) (*logic.Clause, error) {
	run := params.Obs
	head := headAtom(prob.Target)
	clause := logic.NewClause(head)
	varDomains := headDomains(prob.Target)
	nextVar := head.Arity()
	prov := run.Prov()
	var provID uint64 // node of the clause as grown so far

	p := len(uncovered) // the most general clause covers everything
	n := len(prob.Neg)
	// FOIL proper computes gain over bindings, which lets determinate
	// literals (new-variable literals that do not change example coverage)
	// enter the clause. We count over examples instead and approximate
	// determinate-literal introduction by allowing a bounded number of
	// consecutive zero-gain, variable-introducing additions.
	const maxZeroGainRun = 2
	zeroRun := 0
	for round := 0; n > 0; round++ {
		if params.ClauseLength > 0 && clause.Len() >= params.ClauseLength {
			break
		}
		// Each greedy literal addition is FOIL's analogue of a beam round.
		sr := run.StartSpan("beam_round", obs.F("iter", round), obs.F("literals", clause.Len()))
		cands := gen.candidates(varDomains, nextVar)
		run.Add(obs.CCandidateLiterals, int64(len(cands)))
		// FOIL's branching factor is the schema's literal space, so this is
		// the hot loop: score all grown clauses' positive covers as one
		// concurrent batch, then the negative covers of only the candidates
		// that still cover positives (dead candidates skip the negative
		// side, as the sequential path did). Gain needs exact counts, so no
		// early-termination bound applies here.
		grown := make([]coverage.Candidate, len(cands))
		for i := range cands {
			grown[i] = coverage.Candidate{Clause: extend(clause, cands[i].atom)}
		}
		posScores := tester.ScoreBatch(grown, uncovered, nil, coverage.NoBound, 0)
		var alive []int
		var negBatch []coverage.Candidate
		for i, s := range posScores {
			if s.P > 0 {
				alive = append(alive, i)
				negBatch = append(negBatch, coverage.Candidate{Clause: grown[i].Clause})
			}
		}
		negScores := tester.ScoreBatch(negBatch, nil, prob.Neg, coverage.NoBound, 0)
		var best, fallback *candidate
		for bi, i := range alive {
			cand := &cands[i]
			cp, cn := posScores[i].P, negScores[bi].N
			cand.p, cand.n = cp, cn
			cand.gain = gain(p, n, cp, cn)
			if cand.gain > 0 && (best == nil || cand.gain > best.gain) {
				best = cand
			}
			if cand.gain == 0 && len(cand.newVars) > 0 && cp == p && cn <= n &&
				(fallback == nil || cand.n < fallback.n) {
				fallback = cand
			}
		}
		if best == nil {
			if fallback == nil || zeroRun >= maxZeroGainRun {
				sr.End()
				break
			}
			best = fallback
			zeroRun++
		} else {
			zeroRun = 0
		}
		if run.Spanning() {
			sr.Annotate(obs.F("literal", best.atom.String()))
		}
		clause = extend(clause, best.atom)
		if prov.Enabled() {
			provID = prov.Node(obs.ProvNode{
				Parents: []uint64{provID}, Step: obs.StepGreedyExtension,
				Seed:   best.atom.String(),
				Clause: clause.String(), Literals: len(clause.Body),
				Pos: best.p, Neg: best.n, Score: best.gain, Disposition: obs.DispKept,
			})
		}
		for v, d := range best.newVars {
			varDomains[v] = d
		}
		nextVar += len(best.newVars)
		p, n = best.p, best.n
		sr.Annotate(obs.F("gain", best.gain), obs.F("candidates", len(cands)), obs.F("pos", p), obs.F("neg", n))
		sr.End()
	}
	if n > 0 && !ilp.AcceptClause(params, p, n) {
		// The greedy clause still covers too many negatives and fails the
		// minimum condition; covering will reject it anyway, but returning
		// nil makes the failure explicit.
		return nil, nil
	}
	if len(clause.Body) == 0 {
		return nil, nil
	}
	return clause, nil
}

// gain is the (example-level) FOIL information gain of specializing a
// clause with coverage (p0,n0) into one with (p1,n1).
func gain(p0, n0, p1, n1 int) float64 {
	if p1 == 0 {
		return 0
	}
	return float64(p1) * (info(p1, n1) - info(p0, n0))
}

// info is log2 of the precision; higher is purer.
func info(p, n int) float64 {
	if p == 0 {
		return 0
	}
	return math.Log2(float64(p) / float64(p+n))
}

// extend returns the clause with the atom appended.
func extend(c *logic.Clause, a logic.Atom) *logic.Clause {
	body := make([]logic.Atom, 0, len(c.Body)+1)
	body = append(body, c.Body...)
	body = append(body, a)
	return &logic.Clause{Head: c.Head, Body: body}
}

// headAtom builds T(V0,…,Vk-1) for the target relation.
func headAtom(target *relstore.Relation) logic.Atom {
	args := make([]logic.Term, target.Arity())
	for i := range args {
		args[i] = logic.Var("V" + strconv.Itoa(i))
	}
	return logic.NewAtom(target.Name, args...)
}

// headDomains maps the head variables to their domains. The target
// relation is not part of the schema, so its attribute names are resolved
// through the instance schema's domain table by the literal generator.
func headDomains(target *relstore.Relation) map[string]string {
	out := make(map[string]string, target.Arity())
	for i, a := range target.Attrs {
		out["V"+strconv.Itoa(i)] = a
	}
	return out
}

// candidate is one proposed literal with its coverage statistics.
type candidate struct {
	atom    logic.Atom
	newVars map[string]string // fresh variable → domain
	p, n    int
	gain    float64
}

// literalGenerator proposes body literals over the problem's schema.
type literalGenerator struct {
	prob      *ilp.Problem
	schema    *relstore.Schema
	valueVals map[string][]string // "rel\x00col" → distinct constants (capped)
}

func newLiteralGenerator(prob *ilp.Problem) *literalGenerator {
	g := &literalGenerator{
		prob:      prob,
		schema:    prob.Instance.Schema(),
		valueVals: make(map[string][]string),
	}
	for _, rel := range g.schema.Relations() {
		table := prob.Instance.Table(rel.Name)
		if table == nil {
			continue
		}
		for col, attr := range rel.Attrs {
			if !prob.IsValueAttr(g.schema, attr) {
				continue
			}
			seen := make(map[string]bool)
			var vals []string
			for _, tp := range table.Tuples() {
				if !seen[tp[col]] {
					seen[tp[col]] = true
					vals = append(vals, tp[col])
				}
			}
			sort.Strings(vals)
			if len(vals) > maxValueConstants {
				vals = vals[:maxValueConstants]
			}
			g.valueVals[rel.Name+"\x00"+strconv.Itoa(col)] = vals
		}
	}
	return g
}

// candidates enumerates literals: for each relation, each combination of
// (existing compatible variable | fresh variable | value constant) per
// position, keeping only literals that use at least one existing variable.
func (g *literalGenerator) candidates(varDomains map[string]string, nextVar int) []candidate {
	// Existing variables grouped by domain, deterministically ordered.
	byDomain := make(map[string][]string)
	var names []string
	for v := range varDomains {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		d := g.schema.Domain(varDomains[v])
		byDomain[d] = append(byDomain[d], v)
	}

	var out []candidate
	for _, rel := range g.schema.Relations() {
		out = g.enumerate(rel, byDomain, nextVar, out)
	}
	return out
}

// enumerate expands one relation's argument options depth-first.
func (g *literalGenerator) enumerate(rel *relstore.Relation, byDomain map[string][]string, nextVar int, out []candidate) []candidate {
	type option struct {
		term    logic.Term
		isFresh bool
		isOld   bool
		domain  string
	}
	options := make([][]option, rel.Arity())
	for col, attr := range rel.Attrs {
		domain := g.schema.Domain(attr)
		var opts []option
		for _, v := range byDomain[domain] {
			opts = append(opts, option{term: logic.Var(v), isOld: true})
		}
		if g.prob.IsValueAttr(g.schema, attr) {
			for _, val := range g.valueVals[rel.Name+"\x00"+strconv.Itoa(col)] {
				opts = append(opts, option{term: logic.Const(val)})
			}
		} else {
			opts = append(opts, option{term: logic.Term{}, isFresh: true, domain: attr})
		}
		options[col] = opts
	}
	args := make([]logic.Term, rel.Arity())
	var rec func(col, oldCount, freshCount int, freshDomains []string)
	rec = func(col, oldCount, freshCount int, freshDomains []string) {
		if col == rel.Arity() {
			if oldCount == 0 {
				return // not connected to the clause
			}
			atom := logic.NewAtom(rel.Name, append([]logic.Term(nil), args...)...)
			newVars := make(map[string]string, freshCount)
			for i, d := range freshDomains {
				newVars["V"+strconv.Itoa(nextVar+i)] = d
			}
			out = append(out, candidate{atom: atom, newVars: newVars})
			return
		}
		for _, opt := range options[col] {
			switch {
			case opt.isFresh:
				args[col] = logic.Var("V" + strconv.Itoa(nextVar+freshCount))
				rec(col+1, oldCount, freshCount+1, append(freshDomains, opt.domain))
			case opt.isOld:
				args[col] = opt.term
				rec(col+1, oldCount+1, freshCount, freshDomains)
			default:
				args[col] = opt.term
				rec(col+1, oldCount, freshCount, freshDomains)
			}
		}
	}
	rec(0, 0, 0, nil)
	return out
}
