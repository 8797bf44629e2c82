package subsume

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/obs"
)

// preparedCase is one randomly drawn shared-space scenario: a space over a
// base table and extra names, targets compiled into it, and a source.
type preparedCase struct {
	space   *Space
	targets []*logic.Clause
	source  *logic.Clause
}

// Vocabulary of the random cases. "q" is a predicate and a constant at
// once, "t" heads both sides, "zz"/"yy" are constants no space holds (so
// sources carry names the space lacks and targets carry example-only
// constants), and target variables compile to skolems no space holds.
var (
	prepPreds = []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 1}, {"r", 2}, {"s", 3}, {"u", 1}}
	prepConsts = []string{"a", "b", "c", "q", "zz", "yy"}
	prepVars   = []string{"X", "Y", "Z", "W"}
)

func prepTerm(rng *rand.Rand, varFrac int) logic.Term {
	if rng.Intn(10) < varFrac {
		return logic.Var(prepVars[rng.Intn(len(prepVars))])
	}
	return logic.Const(prepConsts[rng.Intn(len(prepConsts))])
}

func prepAtoms(rng *rand.Rand, n, varFrac int, preds int) []logic.Atom {
	out := make([]logic.Atom, n)
	for i := range out {
		p := prepPreds[rng.Intn(preds)]
		args := make([]logic.Term, p.arity)
		for j := range args {
			args[j] = prepTerm(rng, varFrac)
		}
		out[i] = logic.NewAtom(p.name, args...)
	}
	return out
}

func prepClause(rng *rand.Rand, maxBody, varFrac, preds int) *logic.Clause {
	head := make([]logic.Term, 1+rng.Intn(2))
	for j := range head {
		head[j] = prepTerm(rng, varFrac)
	}
	return &logic.Clause{Head: logic.NewAtom("t", head...), Body: prepAtoms(rng, rng.Intn(maxBody+1), varFrac, preds)}
}

// drawPreparedCase builds a scenario from a seed. The base table holds a
// random part of the vocabulary (and the "u" predicate never reaches it),
// so names split between base ids, extra ids and target-local ids.
func drawPreparedCase(seed int64) preparedCase {
	rng := rand.New(rand.NewSource(seed))
	base := logic.NewSymbols()
	var extra []string
	for _, n := range []string{"a", "b", "c", "q", "p", "r", "s", "t"} {
		switch rng.Intn(3) {
		case 0:
			base.Intern(n)
		case 1:
			extra = append(extra, n)
		}
	}
	c := preparedCase{space: NewSpace(base, extra...)}
	// Targets: mostly ground (saturations), some with variables (skolems),
	// some missing predicates the source uses.
	for k := 0; k < 1+rng.Intn(6); k++ {
		varFrac := 0
		if rng.Intn(4) == 0 {
			varFrac = 3
		}
		c.targets = append(c.targets, prepClause(rng, 10, varFrac, 2+rng.Intn(len(prepPreds)-1)))
	}
	c.source = prepClause(rng, 4, 6, len(prepPreds))
	if rng.Intn(4) == 0 {
		// Repeated head variable.
		c.source.Head = logic.NewAtom("t", logic.Var("X"), logic.Var("X"))
	}
	if rng.Intn(2) == 0 {
		// Bindings applied beforehand: a variable bound to a constant, and
		// one aliased to another variable.
		init := logic.Substitution{"X": prepTerm(rng, 0)}
		if rng.Intn(2) == 0 {
			init["Y"] = logic.Var("Z")
		}
		c.source = c.source.Apply(init)
	}
	return c
}

// probeCounts returns a probe's answer and the subsumption counters it
// reported.
func probeCounts(f func(run *obs.Run) bool) (bool, int64, int64) {
	reg := obs.NewRegistry()
	ok := f(obs.NewRun(nil, reg))
	return ok, reg.Get(obs.CSubsumptionNodes), reg.Get(obs.CSubsumptionCalls)
}

// TestPreparedSourceMatchesOneShot: a source prepared once in a shared
// space and probed against targets compiled into that space answers
// exactly as one-shot probes of the same clauses and reports the same
// subsumption_nodes — across source constants and predicates the space
// lacks, target names it lacks (skolems and constants only the target
// holds), predicates missing from a target, repeated head variables,
// empty bodies and sources with bindings applied beforehand.
func TestPreparedSourceMatchesOneShot(t *testing.T) {
	prop := func(seed int64) bool {
		c := drawPreparedCase(seed)
		src := c.space.Prepare(c.source)
		for _, d := range c.targets {
			shared := c.space.Compile(d)
			got, gotNodes, gotCalls := probeCounts(func(run *obs.Run) bool { return shared.Probe(run, src) })
			want, wantNodes, _ := probeCounts(func(run *obs.Run) bool { return Compile(d).SubsumesR(run, c.source) })
			if got != want || gotNodes != wantNodes || gotCalls != 1 {
				t.Logf("seed %d: Probe(%v, %v) = %v/%d nodes, one-shot %v/%d", seed, c.source, d, got, gotNodes, want, wantNodes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// steadyProbe returns a shared-space target and two prepared sources, one
// covering it and one not.
func steadyProbe() (*Compiled, *Source, *Source) {
	base := logic.NewSymbols()
	for _, n := range []string{"a", "b", "c", "d"} {
		base.Intern(n)
	}
	space := NewSpace(base, "t", "p", "q", "r")
	cd := space.Compile(cl("t(a,b) :- p(a,c), p(c,d), q(d), r(b,a), r(c,c)."))
	yes := space.Prepare(cl("t(X,Y) :- p(X,Z), p(Z,W), q(W), r(Y,X)."))
	no := space.Prepare(cl("t(X,Y) :- p(X,Z), q(Z), r(Y,Y)."))
	return cd, yes, no
}

// TestPreparedProbeZeroAlloc pins the steady-state probe at zero
// allocations, covered and uncovered, observed or not.
func TestPreparedProbeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cd, yes, no := steadyProbe()
	run := obs.NewRun(nil, obs.NewRegistry())
	for _, tc := range []struct {
		name string
		src  *Source
		run  *obs.Run
		want bool
	}{
		{"covered", yes, nil, true},
		{"uncovered", no, nil, false},
		{"covered observed", yes, run, true},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if cd.Probe(tc.run, tc.src) != tc.want {
				t.Fatalf("%s: Probe != %v", tc.name, tc.want)
			}
		}); n != 0 {
			t.Errorf("%s: Probe allocates %.1f per call, want 0", tc.name, n)
		}
	}
}

// TestPreparedConcurrentProbes: one prepared source probed against many
// targets from 8 goroutines at once — the coverage engine's sharing — must
// give the sequential answers and exact counter sums. Under -race this is
// the safety check for sharing sources, targets and the space.
func TestPreparedConcurrentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := logic.NewSymbols()
	for _, n := range prepConsts[:4] {
		base.Intern(n)
	}
	space := NewSpace(base, "t", "p", "q", "r", "s")
	var targets []*Compiled
	for k := 0; k < 64; k++ {
		targets = append(targets, space.Compile(prepClause(rng, 12, 0, len(prepPreds)-1)))
	}
	src := space.Prepare(cl("t(X) :- p(X,Y), q(Y)."))
	want := make([]bool, len(targets))
	seq := obs.NewRegistry()
	for k, cd := range targets {
		want[k] = cd.Probe(obs.NewRun(nil, seq), src)
	}
	reg := obs.NewRegistry()
	run := obs.NewRun(nil, reg)
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k, cd := range targets {
					if got := cd.Probe(run, src); got != want[k] {
						t.Errorf("target %d: concurrent probe %v, sequential %v", k, got, want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range []obs.Counter{obs.CSubsumptionCalls, obs.CSubsumptionNodes} {
		if got, w := reg.Get(c), workers*rounds*seq.Get(c); got != w {
			t.Errorf("%v = %d, want %d", c, got, w)
		}
	}
}

// sameSource reports whether two sources hold the same prepared tables
// field for field, the clause of names aside (derived sources hold none);
// empty and nil tables compare equal.
func sameSource(a, b *Source) bool {
	return a.space == b.space && a.head == b.head && slices.Equal(a.lits, b.lits) &&
		slices.Equal(a.argv, b.argv) && slices.Equal(a.preds, b.preds) &&
		slices.Equal(a.occOff, b.occOff) && slices.Equal(a.occ, b.occ) &&
		slices.Equal(a.compOff, b.compOff) && slices.Equal(a.comps, b.comps) &&
		slices.Equal(a.slotNames, b.slotNames)
}

// TestQuickDerivedSourceMatchesPrepare: the source of a sub-clause derived
// from the whole clause's ids under a keep mask equals Prepare of the
// sub-clause field for field and probes every target exactly as it does:
// same answers and subsumption_nodes, also through ProbeSub, which
// prepares the sub-clause afresh for a target in a private space. The
// masks are ReduceR's, one more literal dropped after another, and random
// subsets; one Sub serves them all, so derivations reuse its arrays.
func TestQuickDerivedSourceMatchesPrepare(t *testing.T) {
	prop := func(seed int64) bool {
		c := drawPreparedCase(seed)
		rng := rand.New(rand.NewSource(seed))
		whole := prepClause(rng, 8, 6, len(prepPreds))
		if rng.Intn(4) == 0 {
			whole.Head = logic.NewAtom("t", logic.Var("X"), logic.Var("X"))
		}
		var targets []*Compiled
		for _, d := range append(c.targets, whole) {
			targets = append(targets, c.space.Compile(d))
		}
		src := c.space.Prepare(whole)
		var sc Sub
		keep := make([]bool, len(whole.Body))
		for k := range keep {
			keep[k] = true
		}
		var masks [][]bool
		for _, k := range rng.Perm(len(keep)) {
			keep[k] = false
			masks = append(masks, slices.Clone(keep))
		}
		for range 2 * len(keep) {
			for k := range keep {
				keep[k] = rng.Intn(2) == 0
			}
			masks = append(masks, slices.Clone(keep))
		}
		for _, keep := range masks {
			sub := whole.Keep(keep)
			derived, fresh := src.derive(&sc, keep), c.space.Prepare(sub)
			if !sameSource(derived, fresh) {
				t.Logf("seed %d: derived source of %v is %+v, prepared %+v", seed, sub, *derived, *fresh)
				return false
			}
			for _, cd := range targets {
				want, wantNodes, _ := probeCounts(func(run *obs.Run) bool { return cd.Probe(run, fresh) })
				got, gotNodes, _ := probeCounts(func(run *obs.Run) bool { return cd.ProbeSub(run, src, keep, &sc) })
				if got != want || gotNodes != wantNodes {
					t.Logf("seed %d: sub-clause %v probes %v/%d nodes, prepared %v/%d",
						seed, sub, got, gotNodes, want, wantNodes)
					return false
				}
				if cd.space == src.space {
					got, gotNodes, _ = probeCounts(func(run *obs.Run) bool { return cd.Probe(run, derived) })
					if got != want || gotNodes != wantNodes {
						t.Logf("seed %d: derived source of %v probes %v/%d nodes, prepared %v/%d",
							seed, sub, got, gotNodes, want, wantNodes)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
