package ilp_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/datasets"
	"repro/internal/ilp"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/testfix"
)

// TestARMGFanOutMatchesSerial: a beam round's ARMGs generated on the
// tester's rounds at Parallelism 2 and 4 are the serial ones, entry by
// entry, in both coverage modes and under both policies, for a beam of
// the bottom clause and for a beam of its generalizations: the classic
// policy (no plan) on the 12-student testfix world, Castor's (the
// schema's plan) on UW-CSE's Original schema.
func TestARMGFanOutMatchesSerial(t *testing.T) {
	uw, err := datasets.GenerateUWCSE(datasets.DefaultUWCSE())
	if err != nil {
		t.Fatal(err)
	}
	uwOriginal, err := uw.Problem("Original")
	if err != nil {
		t.Fatal(err)
	}
	world := testfix.NewWorld(12).ProblemOriginal()
	policies := []struct {
		name   string
		prob   *ilp.Problem
		plan   *relstore.Plan
		sample []logic.Atom
	}{
		{"classic", world, nil, world.Pos[1:]},
		{"castor", uwOriginal, relstore.CompilePlan(uwOriginal.Instance.Schema(), false), uwOriginal.Pos[1:9]},
	}
	for _, pol := range policies {
		for _, mode := range []ilp.CoverageMode{ilp.CoverageDB, ilp.CoverageSubsumption} {
			var serial [][]string
			for _, par := range []int{1, 2, 4} {
				params := ilp.Defaults()
				params.Parallelism = par
				params.CoverageMode = mode
				tester, bld := boundTester(pol.prob, pol.plan, params)
				beam := []*logic.Clause{ilp.Variablize(pol.prob, bld.Build(pol.prob.Pos[0], params, nil))}
				var rounds [][]string
				for round := 0; round < 2; round++ {
					gens := ilp.ARMGs(tester, pol.plan, beam, pol.sample)
					if len(gens) != len(beam)*len(pol.sample) {
						t.Fatalf("%s: %d ARMGs of %d entries toward %d examples", pol.name, len(gens), len(beam), len(pol.sample))
					}
					var strs []string
					beam = beam[:0]
					for _, g := range gens {
						s := "<nil>"
						if g != nil {
							s = g.String()
							if len(beam) < 3 {
								beam = append(beam, g)
							}
						}
						strs = append(strs, s)
					}
					rounds = append(rounds, strs)
				}
				if par == 1 {
					serial = rounds
					continue
				}
				for r := range rounds {
					for i := range rounds[r] {
						if rounds[r][i] != serial[r][i] {
							t.Errorf("%s mode %v Parallelism %d round %d: ARMG %d is\n%s\nserially\n%s",
								pol.name, mode, par, r, i, rounds[r][i], serial[r][i])
						}
					}
				}
			}
		}
	}
}

// TestEnforceINDsSkipsHopsPastTheArity: a literal shorter than a position
// an IND hop out of its relation names is not one of the relation's, so
// EnforceINDs skips that hop, wherever in the hop the position sits, and
// the literal stays. Its would-be partner finds no literal of the
// relation's arity to join and goes.
func TestEnforceINDsSkipsHopsPastTheArity(t *testing.T) {
	s := relstore.NewSchema()
	s.MustAddRelation("r", "a", "b")
	s.MustAddRelation("q", "x", "y")
	s.MustAddIND("r", []string{"b", "a"}, "q", []string{"y", "x"}, true)
	plan := relstore.CompilePlan(s, false)
	got := ilp.EnforceINDs(logic.MustParseClause("t(X) :- r(X), q(X,Y)."), plan)
	if want := logic.MustParseClause("t(X) :- r(X)."); !got.Equal(want) {
		t.Errorf("EnforceINDs = %v, want %v", got, want)
	}
}

// TestGeneralizeDropsUnsafeARMGsUnderAPlan: the ARMG of t(X,Y) :- p(X),
// q(Y) toward the second positive drops q(Y), the only literal of the
// head variable Y. The classic policy (no plan) scores that unsafe ARMG,
// which covers both positives, and ends on it; Castor's policy (a plan,
// here of a schema without INDs) discards it (§7.3.2) and ends on the
// bottom clause. Sample 2 draws every positive, so no draw decides it.
func TestGeneralizeDropsUnsafeARMGsUnderAPlan(t *testing.T) {
	s := relstore.NewSchema()
	s.MustAddRelation("p", "a")
	s.MustAddRelation("q", "b")
	inst := relstore.NewInstance(s)
	inst.MustInsert("p", "x1")
	inst.MustInsert("p", "x2")
	inst.MustInsert("q", "y1")
	prob := &ilp.Problem{
		Instance: inst,
		Target:   &relstore.Relation{Name: "t", Attrs: []string{"a", "b"}},
		Pos:      []logic.Atom{logic.GroundAtom("t", "x1", "y1"), logic.GroundAtom("t", "x2", "y2")},
	}
	bottom := logic.MustParseClause("t(X,Y) :- p(X), q(Y).")
	params := ilp.Defaults()
	params.Parallelism = 1
	params.Sample = 2
	for _, tc := range []struct {
		plan   *relstore.Plan
		want   string
		unsafe int // pruned_unsafe ARMG nodes in the provenance stream
	}{
		{nil, "t(X,Y) :- p(X).", 0},
		{relstore.CompilePlan(s, false), "t(X,Y) :- p(X), q(Y).", 1},
	} {
		var stream bytes.Buffer
		prov := obs.NewProvenance(&stream, obs.ProvOptions{MaxNodes: -1})
		p := params
		p.Obs = obs.NewRun(nil, nil).WithProvenance(prov)
		tester := ilp.NewTester(prob, p)
		got, _ := ilp.Generalize(tester, tc.plan, ilp.NewRand(1), prob.Pos[0], bottom, 0, prob.Pos)
		if want := logic.MustParseClause(tc.want); !got.Equal(want) {
			t.Errorf("plan %v: Generalize = %v, want %v", tc.plan != nil, got, want)
		}
		if err := prov.Close(); err != nil {
			t.Fatal(err)
		}
		unsafe := 0
		dec := json.NewDecoder(&stream)
		for dec.More() {
			var n obs.ProvNode
			if err := dec.Decode(&n); err != nil {
				t.Fatal(err)
			}
			if n.Kind == "node" && n.Step == obs.StepARMG && n.Disposition == obs.DispPrunedUnsafe {
				unsafe++
			}
		}
		if unsafe != tc.unsafe {
			t.Errorf("plan %v: %d pruned_unsafe ARMG nodes, want %d", tc.plan != nil, unsafe, tc.unsafe)
		}
	}
}
