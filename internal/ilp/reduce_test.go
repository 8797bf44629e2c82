package ilp_test

import (
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/ilp"
	"repro/internal/logic"
)

// reduceByChecks is the schedule run check by check: the reference
// ilp.Reduce must reach the end state of.
func reduceByChecks(c *logic.Clause, start int, step ilp.Step, check func(*logic.Clause) bool) *logic.Clause {
	cur, pos := c, start
	for {
		cand, pass, fail, ok := step(cur, pos)
		if !ok {
			return cur
		}
		if check(cand) {
			cur, pos = cand, pass
		} else {
			pos = fail
		}
	}
}

// schedule is a removal schedule over literals l(0)…l(n−1). Removing
// literal i also drops literal dep[i] when that is not −1, as pruning
// drops literals left disconnected; a candidate that would remove a
// literal marked skip is never drawn, as unsafe candidates are not. After
// a pass the schedule restarts from the last literal (mode 0, Castor's),
// goes on from the next one down (mode 1, ProGolem's) or stays at the same
// position (mode 2).
func schedule(n int, dep []int, skip []bool, mode int) (c *logic.Clause, start int, step ilp.Step) {
	c = &logic.Clause{Head: logic.NewAtom("h", logic.Var("X"))}
	for i := 0; i < n; i++ {
		c.Body = append(c.Body, logic.GroundAtom("l", strconv.Itoa(i)))
	}
	id := func(a logic.Atom) int { v, _ := strconv.Atoi(a.Args[0].Name); return v }
	step = func(cur *logic.Clause, pos int) (*logic.Clause, int, int, bool) {
		for pos = min(pos, len(cur.Body)-1); pos >= 0; pos-- {
			drop := id(cur.Body[pos])
			if skip[drop] {
				continue
			}
			cand := &logic.Clause{Head: cur.Head}
			for _, a := range cur.Body {
				if i := id(a); i != drop && (dep[drop] < 0 || i != dep[drop]) {
					cand.Body = append(cand.Body, a)
				}
			}
			pass := math.MaxInt
			switch mode {
			case 1:
				pass = min(pos, len(cand.Body)) - 1
			case 2:
				pass = pos
			}
			return cand, pass, pos - 1, true
		}
		return nil, 0, 0, false
	}
	return c, math.MaxInt, step
}

// randomSchedule is a schedule over n literals whose dependencies, skips
// and mode are drawn from r.
func randomSchedule(r *rand.Rand, n int) (c *logic.Clause, start int, step ilp.Step) {
	dep, skip := make([]int, n), make([]bool, n)
	for i := range dep {
		dep[i] = -1
		if r.Intn(3) == 0 {
			dep[i] = r.Intn(n)
		}
		skip[i] = r.Intn(6) == 0
	}
	return schedule(n, dep, skip, r.Intn(3))
}

// keeping returns a monotone check that counts its calls in *checks: a
// candidate passes iff it keeps every literal named in hidden.
func keeping(hidden map[string]bool, checks *int) func(*logic.Clause) bool {
	return func(cand *logic.Clause) bool {
		*checks++
		kept := 0
		for _, a := range cand.Body {
			if hidden[a.Args[0].Name] {
				kept++
			}
		}
		return kept == len(hidden)
	}
}

// TestQuickReduceMatchesCheckByCheck: on random removal schedules with a
// random monotone check (a candidate passes iff it keeps every literal of
// a hidden set), ilp.Reduce ends at the clause the schedule reaches check
// by check.
func TestQuickReduceMatchesCheckByCheck(t *testing.T) {
	var refChecks, gotChecks int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(24)
		c, start, step := randomSchedule(r, n)
		hidden := make(map[string]bool)
		for _, a := range c.Body {
			if r.Intn(4) == 0 {
				hidden[a.Args[0].Name] = true
			}
		}
		checks := 0
		check := keeping(hidden, &checks)
		want := reduceByChecks(c, start, step, check)
		refChecks += checks
		checks = 0
		got := ilp.Reduce(c, start, step, check)
		gotChecks += checks
		if !got.Equal(want) {
			t.Logf("seed %d: got %v, want %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if gotChecks >= refChecks {
		t.Errorf("Reduce made %d checks, the schedule check by check %d: chaining and refutation saved none", gotChecks, refChecks)
	}
	t.Logf("checks: check by check %d, Reduce %d", refChecks, gotChecks)
}

// TestReduceChecksLogarithmically: when every removal but one's passes, as
// in a reduction that keeps a single literal, Reduce confirms each run of
// passing removals with one check, finds the failing removal by bisection
// and never checks it again: a logarithmic number of checks where the
// schedule run check by check makes at least one per literal.
func TestReduceChecksLogarithmically(t *testing.T) {
	const n = 64
	noDeps := make([]int, n)
	for i := range noDeps {
		noDeps[i] = -1
	}
	for mode := 0; mode < 3; mode++ {
		c, start, step := schedule(n, noDeps, make([]bool, n), mode)
		checks := 0
		check := keeping(map[string]bool{strconv.Itoa(n / 3): true}, &checks)
		want := reduceByChecks(c, start, step, check)
		refChecks := checks
		checks = 0
		got := ilp.Reduce(c, start, step, check)
		if !got.Equal(want) {
			t.Errorf("mode %d: got %v, want %v", mode, got, want)
		}
		if limit := 2*bits.Len(n) + 2; checks > limit || refChecks < n {
			t.Errorf("mode %d: Reduce made %d checks (at most %d allowed), the schedule check by check %d", mode, checks, limit, refChecks)
		}
		t.Logf("mode %d: checks: check by check %d, Reduce %d", mode, refChecks, checks)
	}
}
