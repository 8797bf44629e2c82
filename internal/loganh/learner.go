package loganh

import (
	"fmt"
	"strconv"

	"repro/internal/logic"
	"repro/internal/relstore"
)

// Learner runs the A2-style query-based learning loop against an oracle.
type Learner struct {
	// MaxHeadCandidates caps the number of candidate target atoms tried
	// when identifying the missing heads of a counterexample.
	MaxHeadCandidates int
	// MaxRounds caps the number of EQ rounds as a safety net.
	MaxRounds int
}

// NewLearner returns a learner with default bounds.
func NewLearner() *Learner {
	return &Learner{MaxHeadCandidates: 4096, MaxRounds: 1000}
}

// Stats reports query counts of one learning run.
type Stats struct {
	EQs, MQs int
	Exact    bool // the final hypothesis is equivalent to the target
}

// storedExample is one minimized negative counterexample with its
// surviving head candidates.
type storedExample struct {
	x     *Interpretation
	heads []logic.Atom
}

// Learn asks queries until the hypothesis is equivalent to the target (or
// a bound is hit), returning the hypothesis and query statistics.
func (l *Learner) Learn(o *Oracle, schema *relstore.Schema, targetRel *relstore.Relation) (*logic.Definition, Stats, error) {
	var s []*storedExample
	seen := make(map[string]bool)
	h := &logic.Definition{Target: targetRel.Name}

	for round := 0; round < l.MaxRounds; round++ {
		ce := o.Equivalence(h)
		if ce == nil {
			return h, Stats{EQs: o.EQs, MQs: o.MQs, Exact: true}, nil
		}
		if ce.Positive {
			// The hypothesis is too strong: drop every stored head whose
			// clause the counterexample violates.
			pruned := false
			for _, se := range s {
				kept := se.heads[:0]
				for _, b := range se.heads {
					c := variablizedClause(se.x, b, targetRel)
					if sat, err := ce.X.Satisfies(&logic.Definition{Target: targetRel.Name, Clauses: []*logic.Clause{c}}); err == nil && !sat {
						pruned = true
						continue
					}
					kept = append(kept, b)
				}
				se.heads = kept
			}
			if !pruned {
				return h, Stats{EQs: o.EQs, MQs: o.MQs}, fmt.Errorf("loganh: positive counterexample pruned nothing; hypothesis stuck")
			}
		} else {
			x := l.minimize(o, ce.X)
			key := interpKey(x)
			if seen[key] {
				return h, Stats{EQs: o.EQs, MQs: o.MQs}, fmt.Errorf("loganh: repeated counterexample; learner cannot progress")
			}
			seen[key] = true
			heads, err := l.findHeads(o, x, targetRel)
			if err != nil {
				return h, Stats{EQs: o.EQs, MQs: o.MQs}, err
			}
			s = append(s, &storedExample{x: x, heads: heads})
		}
		h = buildHypothesis(s, targetRel)
	}
	return h, Stats{EQs: o.EQs, MQs: o.MQs}, fmt.Errorf("loganh: round limit reached")
}

// minimize shrinks a negative counterexample while it stays negative:
// first dropping whole objects, then single atoms — one MQ per attempt.
// This is where decomposed schemas cost more queries: the same information
// is spread over more atoms, so the atom pass asks more MQs.
func (l *Learner) minimize(o *Oracle, x *Interpretation) *Interpretation {
	for _, obj := range x.Objects() {
		cand := x.WithoutObject(obj)
		if cand.Len() == 0 {
			continue
		}
		if !o.Membership(cand) {
			x = cand
		}
	}
	for _, a := range x.Atoms() {
		if a.Pred == x.targetRel.Name {
			continue
		}
		cand := x.WithoutAtom(a)
		if cand.Len() == 0 {
			continue
		}
		if !o.Membership(cand) {
			x = cand
		}
	}
	return x
}

// findHeads identifies the target atoms whose absence makes x negative,
// via leave-one-out MQs: with all candidate heads added, x must be
// positive; removing one candidate flips it back to negative exactly when
// that head is required.
func (l *Learner) findHeads(o *Oracle, x *Interpretation, targetRel *relstore.Relation) ([]logic.Atom, error) {
	cands := headCandidates(x, targetRel, l.MaxHeadCandidates)
	if len(cands) == 0 {
		return nil, fmt.Errorf("loganh: no candidate heads for counterexample")
	}
	full := x.Clone()
	for _, b := range cands {
		full.Add(b)
	}
	if !o.Membership(full) {
		return nil, fmt.Errorf("loganh: counterexample stays negative with every head added (candidate cap too small?)")
	}
	var heads []logic.Atom
	for _, b := range cands {
		if !o.Membership(full.WithoutAtom(b)) {
			heads = append(heads, b)
		}
	}
	if len(heads) == 0 {
		return nil, fmt.Errorf("loganh: no required head identified")
	}
	return heads, nil
}

// headCandidates enumerates target atoms over x's body objects (objects
// occurring in non-target atoms — heads over any other object would make
// the learned clause unsafe) that are absent from x, in deterministic
// order, capped.
func headCandidates(x *Interpretation, targetRel *relstore.Relation, limit int) []logic.Atom {
	objSet := make(map[string]bool)
	for _, a := range x.Atoms() {
		if a.Pred == targetRel.Name {
			continue
		}
		for _, t := range a.Args {
			objSet[t.Name] = true
		}
	}
	objs := make([]string, 0, len(objSet))
	for _, o := range x.Objects() {
		if objSet[o] {
			objs = append(objs, o)
		}
	}
	if len(objs) == 0 {
		return nil
	}
	arity := targetRel.Arity()
	var out []logic.Atom
	idx := make([]int, arity)
	for {
		vals := make([]string, arity)
		for i, k := range idx {
			vals[i] = objs[k]
		}
		a := logic.GroundAtom(targetRel.Name, vals...)
		if !x.Has(a) {
			out = append(out, a)
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
		// Increment the mixed-radix counter.
		i := arity - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(objs) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// variablizedClause turns a stored example and head atom into a hypothesis
// clause: objects become variables consistently.
func variablizedClause(x *Interpretation, head logic.Atom, targetRel *relstore.Relation) *logic.Clause {
	varOf := make(map[string]logic.Term)
	next := 0
	mapT := func(o string) logic.Term {
		if v, ok := varOf[o]; ok {
			return v
		}
		v := logic.Var("X" + strconv.Itoa(next))
		next++
		varOf[o] = v
		return v
	}
	h := make([]logic.Term, head.Arity())
	for i, t := range head.Args {
		h[i] = mapT(t.Name)
	}
	c := &logic.Clause{Head: logic.NewAtom(head.Pred, h...)}
	for _, a := range x.Atoms() {
		if a.Pred == targetRel.Name {
			continue
		}
		args := make([]logic.Term, a.Arity())
		for i, t := range a.Args {
			args[i] = mapT(t.Name)
		}
		c.Body = append(c.Body, logic.NewAtom(a.Pred, args...))
	}
	return c
}

// buildHypothesis assembles the hypothesis from the stored examples.
func buildHypothesis(s []*storedExample, targetRel *relstore.Relation) *logic.Definition {
	h := &logic.Definition{Target: targetRel.Name}
	for _, se := range s {
		for _, b := range se.heads {
			h.Clauses = append(h.Clauses, variablizedClause(se.x, b, targetRel))
		}
	}
	return h
}

func interpKey(x *Interpretation) string {
	out := ""
	for _, a := range x.Atoms() {
		out += a.Key() + ";"
	}
	return out
}
