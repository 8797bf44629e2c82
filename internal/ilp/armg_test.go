package ilp_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/testfix"
)

// The clause-level references of ARMG's steps: each test prepares its
// clause afresh through Tester.Covers, and each drop rebuilds the clause,
// as ARMG did before it worked on masks.

// refARMG is ARMG as a loop over clauses.
func refARMG(t *ilp.Tester, plan *relstore.Plan, c *logic.Clause, e logic.Atom) *logic.Clause {
	t.Run().Inc(obs.CARMGCalls)
	if _, ok := logic.MatchAtoms(c.Head, e, logic.NewSubstitution()); !ok {
		return nil
	}
	cur := c.Clone()
	for !t.Covers(cur, e) {
		i := refBlockingAtom(t, cur, e)
		if i < 0 {
			return nil
		}
		cur = cur.RemoveBodyAt(i)
		if plan != nil {
			cur = refEnforceINDs(cur, plan)
		}
		cur = refPruneNotHeadConnected(cur)
	}
	return cur
}

// refBlockingAtom is BlockingAtom testing each prefix clause through
// Tester.Covers.
func refBlockingAtom(t *ilp.Tester, c *logic.Clause, e logic.Atom) int {
	if len(c.Body) == 0 {
		return -1
	}
	lo, hi := 0, len(c.Body)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if t.Covers(&logic.Clause{Head: c.Head, Body: c.Body[:mid]}, e) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == 0 && !t.Covers(&logic.Clause{Head: c.Head}, e) {
		return -1
	}
	return hi - 1
}

// refEnforceINDs is EnforceINDs as passes over the clause's body, each
// removing in place every literal with a hop no remaining literal joins.
func refEnforceINDs(c *logic.Clause, plan *relstore.Plan) *logic.Clause {
	body := append([]logic.Atom(nil), c.Body...)
	for removed := true; removed; {
		removed = false
		for i := 0; i < len(body); i++ {
			if !refSatisfiesINDs(body[i], body, plan) {
				body = append(body[:i], body[i+1:]...)
				removed = true
				i--
			}
		}
	}
	return &logic.Clause{Head: c.Head.Clone(), Body: body}
}

func refSatisfiesINDs(lit logic.Atom, body []logic.Atom, plan *relstore.Plan) bool {
hops:
	for _, hop := range plan.Partners(lit.Pred) {
		for _, sp := range hop.SrcPos {
			if sp >= len(lit.Args) {
				continue hops
			}
		}
	others:
		for _, other := range body {
			if other.Pred != hop.Rel {
				continue
			}
			for i, sp := range hop.SrcPos {
				if dp := hop.DstPos[i]; dp >= len(other.Args) || lit.Args[sp] != other.Args[dp] {
					continue others
				}
			}
			continue hops
		}
		return false
	}
	return true
}

// refPruneNotHeadConnected is PruneNotHeadConnected as a fixpoint over
// variable names.
func refPruneNotHeadConnected(c *logic.Clause) *logic.Clause {
	reach := make(map[string]bool)
	for _, v := range c.Head.Vars() {
		reach[v] = true
	}
	connected := make([]bool, len(c.Body))
	for changed := true; changed; {
		changed = false
		for i, a := range c.Body {
			if connected[i] {
				continue
			}
			vars := a.Vars()
			touches := len(vars) == 0
			for _, v := range vars {
				touches = touches || reach[v]
			}
			if touches {
				connected[i], changed = true, true
				for _, v := range vars {
					reach[v] = true
				}
			}
		}
	}
	return c.Keep(connected)
}

// TestQuickMaskStepsMatchClauseSteps: on random clauses and keep masks,
// the IND restoration and the head-connectivity pruning ARMG runs on a
// mask leave the literals their clause-level references leave of the
// sub-clause the mask keeps. The schema's first IND is the shape of
// TestEnforceINDsSkipsHopsPastTheArity, and literals of every relation
// come at the schema's arity and at others, so hops past a literal's
// arity are skipped, and partners of another arity never join.
func TestQuickMaskStepsMatchClauseSteps(t *testing.T) {
	s := relstore.NewSchema()
	s.MustAddRelation("r", "a", "b")
	s.MustAddRelation("q", "x", "y")
	s.MustAddRelation("s", "u", "v", "w")
	s.MustAddIND("r", []string{"b", "a"}, "q", []string{"y", "x"}, true)
	s.MustAddIND("q", []string{"x"}, "s", []string{"w"}, false)
	s.MustAddIND("s", []string{"u", "v"}, "r", []string{"a", "b"}, true)
	plan := relstore.CompilePlan(s, false)
	preds := []string{"r", "q", "s"}
	terms := []logic.Term{logic.Var("X"), logic.Var("Y"), logic.Var("Z"), logic.Var("W"), logic.Var("V"),
		logic.Const("c1"), logic.Const("c2")}
	check := func(c *logic.Clause, keep []bool) bool {
		sub := c.Keep(keep)
		mask := slices.Clone(keep)
		ilp.EnforceINDsMask(c, plan, mask)
		if got, want := c.Keep(mask), refEnforceINDs(sub, plan); !got.Equal(want) {
			t.Logf("%v under %v: IND restoration on the mask keeps %v, on the clause %v", c, keep, got, want)
			return false
		}
		if got, want := ilp.EnforceINDs(sub, plan), refEnforceINDs(sub, plan); !got.Equal(want) {
			t.Logf("EnforceINDs(%v) = %v, want %v", sub, got, want)
			return false
		}
		cv := logic.NewClauseVars(c)
		connected, reach := make([]bool, len(keep)), make([]bool, cv.NumVars())
		cv.HeadConnected(keep, connected, reach)
		if got, want := c.Keep(connected), refPruneNotHeadConnected(sub); !got.Equal(want) {
			t.Logf("%v under %v: pruning on the mask keeps %v, on the clause %v", c, keep, got, want)
			return false
		}
		return true
	}
	arity := logic.MustParseClause("t(X) :- r(X), q(X,Y).")
	if !check(arity, []bool{true, true}) {
		t.Fatal("the shape of TestEnforceINDsSkipsHopsPastTheArity")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := &logic.Clause{Head: logic.NewAtom("t", terms[r.Intn(2)])}
		if r.Intn(3) == 0 {
			c.Head.Args = append(c.Head.Args, terms[r.Intn(3)])
		}
		for n := r.Intn(11); n > 0; n-- {
			p := preds[r.Intn(len(preds))]
			rel, _ := plan.Schema().Relation(p)
			ar := rel.Arity()
			if r.Intn(4) == 0 {
				ar = 1 + r.Intn(3)
			}
			a := logic.NewAtom(p)
			for range ar {
				a.Args = append(a.Args, terms[r.Intn(len(terms))])
			}
			c.Body = append(c.Body, a)
		}
		keep := make([]bool, len(c.Body))
		for k := range keep {
			keep[k] = r.Intn(4) != 0
		}
		return check(c, keep)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// armgCounters are the registry counters an ARMG's tests move.
var armgCounters = []obs.Counter{
	obs.CARMGCalls, obs.CCoverageTests, obs.CSaturationHits, obs.CSaturationMisses,
	obs.CSubsumptionCalls, obs.CSubsumptionNodes, obs.CSubsumptionBudgetExhausted,
	obs.CTuplesScanned, obs.CEvalBudgetExhausted,
}

// TestQuickARMGMatchesClauseReference: ARMG on masks, each beam entry
// prepared once, generalizes as the clause-level reference loop does, and
// its tests count as the reference's: coverage_tests, saturation hits and
// misses, subsumption calls and nodes, tuples_scanned and the per-table
// store statistics, at Parallelism 1. The entries are a positive's bottom
// clause and its ARMGs toward other positives, generalized toward
// positives and negatives, in both coverage modes, under the classic
// policy (no plan) on the 12-student testfix world and Castor's (the
// schema's plan) on UW-CSE's Original and 4NF schemas.
func TestQuickARMGMatchesClauseReference(t *testing.T) {
	uw, err := datasets.GenerateUWCSE(datasets.DefaultUWCSE())
	if err != nil {
		t.Fatal(err)
	}
	world := testfix.NewWorld(12).ProblemOriginal()
	type cell struct {
		name string
		prob *ilp.Problem
		plan *relstore.Plan
	}
	cells := []cell{{"classic world", world, nil}}
	for _, schema := range []string{"Original", "4NF"} {
		prob, err := uw.Problem(schema)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{"castor " + schema, prob, relstore.CompilePlan(prob.Instance.Schema(), false)})
	}
	for _, cl := range cells {
		for mode, label := range []string{ilp.CoverageDB: "direct", ilp.CoverageSubsumption: "subsumption"} {
			t.Run(cl.name+"/"+label, func(t *testing.T) {
				params := ilp.Defaults()
				params.Parallelism = 1
				params.CoverageMode = ilp.CoverageMode(mode)
				side := func() (*ilp.Tester, *obs.Registry, *obs.Run) {
					reg := obs.NewRegistry()
					run := obs.NewRun(nil, reg)
					p := params
					p.Obs = run
					tester, _ := boundTester(cl.prob, cl.plan, p)
					return tester, reg, run
				}
				refT, refReg, refRun := side()
				maskT, maskReg, maskRun := side()
				genT, bld := boundTester(cl.prob, cl.plan, params) // draws the entries
				conT, _ := boundTester(cl.prob, cl.plan, params)   // runs one entry's jobs at once
				pos, neg := cl.prob.Pos, cl.prob.Neg
				f := func(seed int64) bool {
					r := rand.New(rand.NewSource(seed))
					c := ilp.Variablize(cl.prob, bld.Build(pos[r.Intn(len(pos))], params, nil))
					if r.Intn(2) == 0 {
						cl.prob.Instance.SetObs(nil)
						if g := refARMG(genT, cl.plan, c, pos[r.Intn(len(pos))]); g != nil && len(g.Body) > 0 {
							c = g
						}
					}
					pe := ilp.PrepareARMG(maskT, cl.plan, c)
					examples, wants := make([]logic.Atom, 4), make([]*logic.Clause, 4)
					for j := range examples {
						e := pos[r.Intn(len(pos))]
						if r.Intn(3) == 0 && len(neg) > 0 {
							e = neg[r.Intn(len(neg))]
						}
						cl.prob.Instance.SetObs(refRun)
						want := refARMG(refT, cl.plan, c, e)
						cl.prob.Instance.SetObs(maskRun)
						got := ilp.RunARMG(maskT, pe, e)
						if !got.Equal(want) {
							t.Logf("ARMG of %v toward %v is\n%v\non masks, by clauses\n%v", c, e, got, want)
							return false
						}
						examples[j], wants[j] = e, want
					}
					// The jobs of one preparation, run at once as a beam
					// round's may run, generalize as the serial ones do.
					cl.prob.Instance.SetObs(nil)
					shared := ilp.PrepareARMG(conT, cl.plan, c)
					gots := make([]*logic.Clause, len(examples))
					var wg sync.WaitGroup
					for j, e := range examples {
						wg.Add(1)
						go func() {
							defer wg.Done()
							gots[j] = ilp.RunARMG(conT, shared, e)
						}()
					}
					wg.Wait()
					for j := range gots {
						if !gots[j].Equal(wants[j]) {
							t.Logf("concurrent ARMG of %v toward %v is\n%v\nserially\n%v", c, examples[j], gots[j], wants[j])
							return false
						}
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
					t.Fatal(err)
				}
				for _, ctr := range armgCounters {
					if got, want := maskReg.Get(ctr), refReg.Get(ctr); got != want {
						t.Errorf("%v: %d on masks, %d by clauses", ctr, got, want)
					}
				}
				if got, want := maskReg.Snapshot().Store, refReg.Snapshot().Store; !reflect.DeepEqual(got, want) {
					t.Errorf("store statistics %v on masks, %v by clauses", got, want)
				}
				if refReg.Get(obs.CCoverageTests) == 0 {
					t.Error("no coverage test ran")
				}
			})
		}
	}
}

// TestARMGAllocsPin: one ARMG job on a UW-CSE ×30 beam entry, prepared
// once as a beam round prepares it, allocates the generalization (3: the
// clause, its body and its head's arguments) and a constant few more: 3
// for the job's masks, its index scratch and its probe holder, and in
// subsumption mode 10 for the derived source's arrays and scratch, sized
// once. The head check builds no substitution (it took 2 more when it
// did). However many coverage tests the job makes (21 to 75 here), its
// tests allocate nothing.
func TestARMGAllocsPin(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	u := datasets.DefaultUWCSE()
	u.Seed, u.Scale = 1, 30
	ds, err := datasets.GenerateUWCSE(u)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := ds.Problem("Original")
	if err != nil {
		t.Fatal(err)
	}
	plan := relstore.CompilePlan(prob.Instance.Schema(), false)
	for mode, most := range map[ilp.CoverageMode]float64{ilp.CoverageDB: 3 + 3, ilp.CoverageSubsumption: 3 + 3 + 10} {
		params := ilp.Defaults()
		params.Parallelism = 1
		params.CoverageMode = mode
		reg := obs.NewRegistry()
		params.Obs = obs.NewRun(nil, reg)
		tester, bld := boundTester(prob, plan, params)
		entry := ilp.Variablize(prob, bld.Build(prob.Pos[0], params, nil))
		pe := ilp.PrepareARMG(tester, plan, entry)
		tests := map[int64]bool{}
		for _, e := range prob.Pos[1:9] {
			before := reg.Get(obs.CCoverageTests)
			g := ilp.RunARMG(tester, pe, e) // warms the saturations and the pools
			n := reg.Get(obs.CCoverageTests) - before
			tests[n] = true
			if allocs := testing.AllocsPerRun(10, func() { ilp.RunARMG(tester, pe, e) }); allocs > most {
				t.Errorf("mode %v: the ARMG of %d literals toward %v (%d tests, %d literals kept) allocates %.1f times, want at most %.0f",
					mode, len(entry.Body), e, n, len(g.Body), allocs, most)
			}
		}
		if len(tests) < 3 {
			t.Errorf("mode %v: the jobs made %d distinct numbers of tests, want ARMGs of several lengths", mode, len(tests))
		}
	}
}

// TestQuickHeadMatchesAsMatchAtoms: ARMG's head check, which builds no
// substitution, answers as logic.MatchAtoms does on random heads over
// two predicates, arities 1 to 3, repeated variables and constants,
// against random ground atoms.
func TestQuickHeadMatchesAsMatchAtoms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		atom := func(ground bool) logic.Atom {
			args := make([]logic.Term, 1+r.Intn(3))
			for i := range args {
				if !ground && r.Intn(3) > 0 {
					args[i] = logic.Var([]string{"X", "Y"}[r.Intn(2)])
				} else {
					args[i] = logic.Const([]string{"a", "b"}[r.Intn(2)])
				}
			}
			pred := "t"
			if r.Intn(8) == 0 {
				pred = "u"
			}
			return logic.NewAtom(pred, args...)
		}
		h, e := atom(false), atom(true)
		_, want := logic.MatchAtoms(h, e, logic.NewSubstitution())
		if got := ilp.HeadMatches(h, e); got != want {
			t.Logf("head %v, example %v: %v, MatchAtoms %v", h, e, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
