package ilp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/testfix"
)

func TestInclusionInstances(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	plan := relstore.CompilePlan(prob.Instance.Schema(), false)
	c := logic.MustParseClause(
		"t(X,Y) :- student(X), inPhase(X, prelim), yearsInProgram(X, 2), professor(Y), hasPosition(Y, faculty), publication(P, X).")
	inst := ilp.InclusionInstances(c, plan)
	if len(inst) != 3 {
		t.Fatalf("instances = %v", inst)
	}
	// First instance: the three student literals (indexes 0,1,2).
	if len(inst[0]) != 3 || inst[0][0] != 0 || inst[0][2] != 2 {
		t.Errorf("student instance = %v", inst[0])
	}
	// Second: professor+hasPosition.
	if len(inst[1]) != 2 {
		t.Errorf("professor instance = %v", inst[1])
	}
	// Third: publication singleton.
	if len(inst[2]) != 1 {
		t.Errorf("publication instance = %v", inst[2])
	}
}

// instanceStats counts what the name-keyed reference met while grouping.
type instanceStats struct {
	unknown, wrongArity, pastArity int // literals
	conflicts                      int // partners a row attribute turned away
	duplicates                     int // closures equal to an earlier one
	shared                         int // clauses with a literal in two instances
}

// instancesByName groups the clause's literals as InclusionInstances did
// before it walked IND partner lists: each closure rescans the body for
// every hop and tracks its row in a map keyed by attribute name.
func instancesByName(c *logic.Clause, plan *relstore.Plan, st *instanceStats) [][]int {
	var out [][]int
	seen := make(map[string]bool)
	holders := make([]int, len(c.Body))
	for j := range c.Body {
		inst := closureByName(c, plan, j, st)
		k := fmt.Sprint(inst)
		if seen[k] {
			st.duplicates++
			continue
		}
		seen[k] = true
		out = append(out, inst)
		for _, li := range inst {
			holders[li]++
		}
	}
	if slices.ContainsFunc(holders, func(h int) bool { return h > 1 }) {
		st.shared++
	}
	return out
}

// closureByName expands literal j over IND-hop matches within the clause,
// keeping the accumulated row consistent.
func closureByName(c *logic.Clause, plan *relstore.Plan, j int, st *instanceStats) []int {
	schema := plan.Schema()
	row := make(map[string]logic.Term)
	consistent := func(lit logic.Atom) (*relstore.Relation, bool) {
		rel, ok := schema.Relation(lit.Pred)
		if !ok || rel.Arity() != lit.Arity() {
			return nil, false
		}
		for pos, attr := range rel.Attrs {
			if t, bound := row[attr]; bound && t != lit.Args[pos] {
				st.conflicts++
				return nil, false
			}
		}
		return rel, true
	}
	merge := func(rel *relstore.Relation, lit logic.Atom) {
		for pos, attr := range rel.Attrs {
			row[attr] = lit.Args[pos]
		}
	}
	in := map[int]bool{j: true}
	if rel, ok := consistent(c.Body[j]); ok {
		merge(rel, c.Body[j])
	}
	queue := []int{j}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		lit := c.Body[cur]
		for _, hop := range plan.Partners(lit.Pred) {
			for k, other := range c.Body {
				if in[k] || other.Pred != hop.Rel {
					continue
				}
				match := true
				for i, sp := range hop.SrcPos {
					dp := hop.DstPos[i]
					if sp >= len(lit.Args) || dp >= len(other.Args) || lit.Args[sp] != other.Args[dp] {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				rel, ok := consistent(other)
				if !ok {
					continue
				}
				merge(rel, other)
				in[k] = true
				queue = append(queue, k)
			}
		}
	}
	out := make([]int, 0, len(in))
	for k := range in {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// randomClause draws a body of up to 16 literals over the plan's schema
// from a pool of four variables and two constants, so that literals join,
// rows conflict and closures repeat. Most literals join an earlier one
// through one of its IND hops, copying its join terms; the others are of a
// random relation, of the wrong arity (hops past the literal's arity
// among them) or of a relation the schema lacks.
func randomClause(r *rand.Rand, plan *relstore.Plan, st *instanceStats) *logic.Clause {
	rels := plan.Schema().Relations()
	terms := []logic.Term{logic.Var("A"), logic.Var("B"), logic.Var("C"), logic.Var("D"), logic.Const("k"), logic.Const("m")}
	args := func(n int) []logic.Term {
		out := make([]logic.Term, n)
		for i := range out {
			out[i] = terms[r.Intn(len(terms))]
		}
		return out
	}
	c := &logic.Clause{Head: logic.NewAtom("t", logic.Var("A"))}
	for n := 1 + r.Intn(16); len(c.Body) < n; {
		rel := rels[r.Intn(len(rels))]
		lit := logic.Atom{Pred: rel.Name, Args: args(rel.Arity())}
		switch k := r.Intn(10); {
		case k == 0:
			lit = logic.Atom{Pred: "unknown", Args: args(1 + r.Intn(3))}
			st.unknown++
		case k == 1:
			lit.Args = args(max(0, rel.Arity()+[]int{-1, 1}[r.Intn(2)]))
			st.wrongArity++
		case k < 8 && len(c.Body) > 0:
			from := c.Body[r.Intn(len(c.Body))]
			hops := plan.Partners(from.Pred)
			if len(hops) == 0 {
				break
			}
			hop := hops[r.Intn(len(hops))]
			to, _ := plan.Schema().Relation(hop.Rel)
			lit = logic.Atom{Pred: hop.Rel, Args: args(to.Arity())}
			for i, sp := range hop.SrcPos {
				if sp < len(from.Args) {
					lit.Args[hop.DstPos[i]] = from.Args[sp]
				}
			}
		}
		for _, hop := range plan.Partners(lit.Pred) {
			if slices.ContainsFunc(hop.SrcPos, func(sp int) bool { return sp >= len(lit.Args) }) {
				st.pastArity++
				break
			}
		}
		c.Body = append(c.Body, lit)
	}
	return c
}

// TestQuickInclusionInstancesMatchByName: InclusionInstances, which walks
// the clause's IND partner lists and holds the joined row per attribute
// id, groups random clauses over the ten schemas' plans as the name-keyed
// closure did, and so Castor's bottom clauses of the first five positives
// of each schema. So does the walk negative reduction keeps per plan,
// reused from clause to clause, and what it returned for a plan's last
// clause stays as it was after it walks the next one. The random clauses
// must include literals of unknown relations and of the wrong arity, hops
// past a literal's arity, row conflicts, duplicate closures and instances
// that share literals.
func TestQuickInclusionInstancesMatchByName(t *testing.T) {
	schemas, err := testfix.TenSchemas()
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*relstore.Plan, len(schemas))
	walks := make([]func(*logic.Clause) [][]int, len(schemas))
	last, lastWant := make([][][]int, len(schemas)), make([][][]int, len(schemas))
	for i, sc := range schemas {
		plans[i] = relstore.CompilePlan(sc.Prob.Instance.Schema(), false)
		walks[i] = ilp.InstanceWalk(plans[i])
	}
	var st instanceStats
	equal := func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }
	matches := func(c *logic.Clause, i int) bool {
		want := instancesByName(c, plans[i], &st)
		got, walked := ilp.InclusionInstances(c, plans[i]), walks[i](c)
		if !equal(got, want) || !equal(walked, want) || !equal(last[i], lastWant[i]) {
			t.Logf("%v:\n got    %v\n walked %v\n want   %v\nthe last clause's walk now reads %v, was %v", c, got, walked, want, last[i], lastWant[i])
			return false
		}
		last[i], lastWant[i] = walked, want
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		i := r.Intn(len(plans))
		return matches(randomClause(r, plans[i], &st), i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	if st.unknown == 0 || st.wrongArity == 0 || st.pastArity == 0 || st.conflicts == 0 || st.duplicates == 0 || st.shared == 0 {
		t.Errorf("the random clauses missed a case: %+v", st)
	}
	t.Logf("random clauses: %+v", st)
	for i, sc := range schemas {
		for _, e := range sc.Prob.Pos[:5] {
			bottom := ilp.Variablize(sc.Prob, ilp.NewBuilder(sc.Prob, plans[i]).Build(e, ilp.Defaults(), nil))
			if !matches(bottom, i) {
				t.Errorf("%s: the bottom clause of %v groups differently", sc.Name, e)
			}
		}
	}
}

func TestNegativeReduceAtInstanceGranularity(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	plan := relstore.CompilePlan(prob.Instance.Schema(), false)
	tester := ilp.NewTester(prob, ilp.Defaults())
	// The student inclusion instance is non-essential; the publication join
	// and faculty position are essential.
	c := logic.MustParseClause(
		"advisedBy(X,Y) :- student(X), inPhase(X, prelim), yearsInProgram(X, 1), publication(P,X), publication(P,Y), professor(Y), hasPosition(Y, faculty).")
	r := ilp.NegativeReduce(tester, plan, c, nil)
	if tester.Count(r, prob.Neg, nil) > tester.Count(c, prob.Neg, nil) {
		t.Error("negative coverage increased")
	}
	if tester.Count(r, prob.Pos, nil) < tester.Count(c, prob.Pos, nil) {
		t.Error("positive coverage decreased")
	}
	if !r.IsSafe() {
		t.Errorf("unsafe reduction: %v", r)
	}
	// The whole student instance must go together or stay together.
	var hasStudent, hasPhase, hasYears bool
	for _, a := range r.Body {
		switch a.Pred {
		case "student":
			hasStudent = true
		case "inPhase":
			hasPhase = true
		case "yearsInProgram":
			hasYears = true
		}
	}
	if hasStudent != hasPhase || hasPhase != hasYears {
		t.Errorf("instance split: %v", r)
	}
}

func TestNegativeReduce(t *testing.T) {
	w := testfix.NewWorld(8)
	prob := w.ProblemOriginal()
	tester := ilp.NewTester(prob, ilp.Defaults())
	// publication join + faculty position is essential; ta literal is not.
	c := logic.MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y), hasPosition(Y,faculty), student(X).")
	r := ilp.NegativeReduce(tester, nil, c, nil)
	if tester.Count(r, prob.Neg, nil) > tester.Count(c, prob.Neg, nil) {
		t.Error("negative reduction increased negative coverage")
	}
	if tester.Count(r, prob.Pos, nil) < tester.Count(c, prob.Pos, nil) {
		t.Error("negative reduction lost positive coverage")
	}
	if len(r.Body) >= len(c.Body) {
		t.Errorf("nothing was reduced: %v", r)
	}
}
