package subsume

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

// chainClause is t(X0) :- p(X0,X1), p(X1,X2), …, p(Xn−1,Xn): a path from
// the head variable has no redundant literal, so reducing it makes n
// removal attempts and keeps every literal.
func chainClause(n int) *logic.Clause {
	body := make([]logic.Atom, n)
	for i := range body {
		body[i] = logic.NewAtom("p", logic.Var(fmt.Sprint("X", i)), logic.Var(fmt.Sprint("X", i+1)))
	}
	return logic.NewClause(logic.NewAtom("t", logic.Var("X0")), body...)
}

// TestReduceRAllocsPerAttemptPin: a removal attempt allocates nothing.
// The clause is compiled as a target once per call and each attempt
// probes it under a mask of the literals kept, so what a call allocates
// is its setup (cloning the clause, interning its names, compiling and
// preparing it): about two allocations per literal and a few dozen in
// all. Spread over the attempts, that is at most 5 per attempt, and it
// falls as the clause grows: 4.44, 2.70 and 2.21 at 16, 64 and 256
// literals. (A shorter target compiled per attempt, a header and an
// arena, made 6.56, 4.73 and 4.22; interning a private space per attempt
// made 66, 168 and 560.)
func TestReduceRAllocsPerAttemptPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	prev := 0.0
	for _, n := range []int{16, 64, 256} {
		c := chainClause(n)
		if got := ReduceR(nil, c); len(got.Body) != n {
			t.Fatalf("chain of %d literals reduced to %d", n, len(got.Body))
		}
		perAttempt := testing.AllocsPerRun(2, func() { ReduceR(nil, c) }) / float64(n)
		t.Logf("%d literals: %.2f allocations per removal attempt", n, perAttempt)
		if perAttempt > 5 {
			t.Errorf("%d literals: %.2f allocations per removal attempt, want at most 5", n, perAttempt)
		}
		if prev > 0 && perAttempt >= prev {
			t.Errorf("%d literals: %.2f allocations per removal attempt, not fewer than %.2f at a quarter of the length", n, perAttempt, prev)
		}
		prev = perAttempt
	}
}
