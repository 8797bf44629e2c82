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

// TestReduceRAllocsPerAttemptPin: a removal attempt allocates only the
// shorter target, its header and its arena, two allocations whatever the
// clause's length; the setup (cloning the clause, interning its names,
// preparing it) adds about three per literal and a few dozen in all. Over
// clauses of 16 to 256 literals, allocations per attempt stay at most 8
// and do not grow with the length. (Interning a private space per attempt
// made them grow with it: 66, 168 and 560 per attempt at 16, 64 and 256
// literals; a target of four allocations made 9.6 at 16.)
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
		if perAttempt > 8 {
			t.Errorf("%d literals: %.2f allocations per removal attempt, want at most 8", n, perAttempt)
		}
		if prev > 0 && perAttempt > prev {
			t.Errorf("%d literals: %.2f allocations per removal attempt, more than %.2f at a quarter of the length", n, perAttempt, prev)
		}
		prev = perAttempt
	}
}
