package logic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// headConnectedByName is the fixpoint HeadConnected computes, over
// variable names, each literal's variables listed anew on every pass.
func headConnectedByName(c *Clause) []bool {
	connected := make([]bool, len(c.Body))
	reach := make(map[string]bool)
	for _, v := range c.Head.Vars() {
		reach[v] = true
	}
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
			if !touches {
				continue
			}
			connected[i] = true
			changed = true
			for _, v := range vars {
				reach[v] = true
			}
		}
	}
	return connected
}

// longClauseValue is a random clause with up to 16 body literals, so
// chains of shared variables several literals long occur.
type longClauseValue struct{ c *Clause }

func (longClauseValue) Generate(r *rand.Rand, _ int) reflect.Value {
	c := &Clause{Head: randAtomQ(r)}
	for i := r.Intn(17); i > 0; i-- {
		c.Body = append(c.Body, randAtomQ(r))
	}
	return reflect.ValueOf(longClauseValue{c: c})
}

// TestQuickHeadConnectedMatchesByName: HeadConnected, which lists each
// literal's variables once per call, answers as the pass-by-pass fixpoint
// over names does.
func TestQuickHeadConnectedMatchesByName(t *testing.T) {
	f := func(v longClauseValue) bool {
		return reflect.DeepEqual(HeadConnected(v.c), headConnectedByName(v.c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickHeadConnectedMaskMatchesByName: ClauseVars.HeadConnected under
// a keep mask marks exactly the kept literals that the fixpoint over
// names finds head-connected in the sub-clause the mask keeps, reusing
// its scratch from clause to clause.
func TestQuickHeadConnectedMaskMatchesByName(t *testing.T) {
	var connected, reach []bool
	f := func(v longClauseValue, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		keep := make([]bool, len(v.c.Body))
		for i := range keep {
			keep[i] = r.Intn(3) != 0
		}
		sub := v.c.Keep(keep)
		cv := NewClauseVars(v.c)
		connected = append(connected[:0], make([]bool, len(keep))...)
		if cv.NumVars() > len(reach) {
			reach = make([]bool, cv.NumVars())
		}
		cv.HeadConnected(keep, connected, reach)
		want := headConnectedByName(sub)
		for i := range keep {
			if connected[i] != (keep[i] && want[0]) {
				return false
			}
			if keep[i] {
				want = want[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// chainClause is h(X0) :- e(X0,X1), …, e(Xn−1,Xn), body reversed when
// reverse is set: forward, one fixpoint pass connects every literal;
// reversed, each pass connects one more.
func chainClause(n int, reverse bool) *Clause {
	c := &Clause{Head: NewAtom("h", Var("X0"))}
	for i := 0; i < n; i++ {
		c.Body = append(c.Body, NewAtom("e", Var(fmt.Sprint("X", i)), Var(fmt.Sprint("X", i+1))))
	}
	if reverse {
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			c.Body[i], c.Body[j] = c.Body[j], c.Body[i]
		}
	}
	return c
}

// TestHeadConnectedAllocsPin pins HeadConnected's allocations: a fixed
// handful per call (seven with Go 1.24's maps, one spare), however many
// fixpoint passes the clause takes. A 32-literal chain listed back to
// front takes 33 passes; listing its literals' variables again on each
// pass allocated over a thousand times.
func TestHeadConnectedAllocsPin(t *testing.T) {
	const n, most = 32, 8
	forward, reverse := chainClause(n, false), chainClause(n, true)
	for _, c := range []*Clause{forward, reverse} {
		for i, ok := range HeadConnected(c) {
			if !ok {
				t.Fatalf("literal %d of %v not head-connected", i, c)
			}
		}
	}
	fwd := testing.AllocsPerRun(100, func() { HeadConnected(forward) })
	rev := testing.AllocsPerRun(100, func() { HeadConnected(reverse) })
	if rev != fwd || rev > most {
		t.Errorf("HeadConnected allocates %v times on a chain in one pass and %v in %d passes, want equal and at most %d",
			fwd, rev, n+1, most)
	}
}
