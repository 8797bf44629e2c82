package relstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

// randInstance fills a fixed two-relation schema with random tuples over a
// small constant pool, so joins and queries hit plenty of collisions.
func randTwoRelInstance(r *rand.Rand, indexed bool) *Instance {
	s := NewSchema()
	s.MustAddRelation("p", "a", "b")
	s.MustAddRelation("q", "b", "c")
	inst := newInstance(s, indexed)
	vals := []string{"v0", "v1", "v2", "v3"}
	for i := 0; i < 4+r.Intn(12); i++ {
		inst.MustInsert("p", vals[r.Intn(len(vals))], vals[r.Intn(len(vals))])
	}
	for i := 0; i < 4+r.Intn(12); i++ {
		inst.MustInsert("q", vals[r.Intn(len(vals))], vals[r.Intn(len(vals))])
	}
	return inst
}

// TestQuickIndexedMatchesScan: every query primitive returns identical
// results, tuple for tuple and in the same order, with and without the
// posting indexes.
func TestQuickIndexedMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	vals := []string{"v0", "v1", "v2", "v9"}
	for trial := 0; trial < 150; trial++ {
		seed := r.Int63()
		ri := rand.New(rand.NewSource(seed))
		a := randTwoRelInstance(ri, true)
		ri = rand.New(rand.NewSource(seed))
		b := randTwoRelInstance(ri, false)
		for _, rel := range []string{"p", "q"} {
			for col := 0; col < 2; col++ {
				for _, v := range vals {
					x := a.Table(rel).TuplesWith(map[int]string{col: v})
					y := b.Table(rel).TuplesWith(map[int]string{col: v})
					if len(x) != len(y) {
						t.Fatalf("TuplesWith mismatch: %v vs %v", x, y)
					}
					for i := range x {
						if !x[i].Equal(y[i]) {
							t.Fatalf("TuplesWith(%d=%s) order mismatch: %v vs %v", col, v, x, y)
						}
					}
				}
			}
			for _, v := range vals {
				x := a.Table(rel).TuplesContaining(v)
				y := b.Table(rel).TuplesContaining(v)
				if len(x) != len(y) {
					t.Fatalf("TuplesContaining mismatch: %v vs %v", x, y)
				}
				for i := range x {
					if !x[i].Equal(y[i]) {
						t.Fatalf("order mismatch: %v vs %v", x, y)
					}
				}
			}
		}
	}
}

// TestQuickJoinAgainstNaive: the id-space join over postings equals the
// string-tuple hash join row for row, and the nested-loop definition of
// natural join as a set, on random instances.
func TestQuickJoinAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 150; trial++ {
		inst := randTwoRelInstance(r, true)
		_, got, err := joinIDs(t, inst, "p", "q")
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]bool)
		for _, pt := range inst.Table("p").Tuples() {
			for _, qt := range inst.Table("q").Tuples() {
				if pt[1] == qt[0] {
					want[pt[0]+"|"+pt[1]+"|"+qt[1]] = true
				}
			}
		}
		if len(got.Tuples) != len(want) {
			t.Fatalf("join size %d want %d", len(got.Tuples), len(want))
		}
		for _, tp := range got.Tuples {
			if !want[tp[0]+"|"+tp[1]+"|"+tp[2]] {
				t.Fatalf("unexpected joined tuple %v", tp)
			}
		}
	}
}

// joinConsistent is the join-based definition of pairwise consistency:
// every relation, naturally joined with each relation it shares an
// attribute with and projected back onto its own attributes, keeps all of
// its tuples.
func joinConsistent(t *testing.T, inst *Instance, rels ...string) bool {
	t.Helper()
	for _, x := range rels {
		for _, y := range rels {
			tx, ty := inst.Table(x), inst.Table(y)
			if x == y || len(tx.Relation().SharedAttrs(ty.Relation())) == 0 {
				continue
			}
			joined, err := refJoin(refTable(tx), refTable(ty))
			if err != nil {
				t.Fatal(err)
			}
			back, err := refProject(joined, tx.Relation().Attrs)
			if err != nil {
				t.Fatal(err)
			}
			if len(back.Tuples) != tx.Len() {
				return false
			}
		}
	}
	return true
}

// TestQuickPairwiseConsistentAgainstJoin: the inclusion semi-join check
// agrees with the join-based definition on random instances of relations
// sharing one, two or no attributes. Half the instances are projections of
// one random universal relation (consistent by construction) with a random
// stray tuple added half of the time, so both answers are exercised.
func TestQuickPairwiseConsistentAgainstJoin(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation("p", "a", "b")
	s.MustAddRelation("q", "b", "c")
	s.MustAddRelation("w", "a", "b", "c")
	s.MustAddRelation("u", "c")
	s.MustAddRelation("v", "d")
	names := []string{"p", "q", "w", "u", "v"}
	r := rand.New(rand.NewSource(66))
	vals := []string{"v0", "v1", "v2"}
	val := func() string { return vals[r.Intn(len(vals))] }
	outcomes := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		inst := NewInstance(s)
		if trial%2 == 0 {
			for n := 1 + r.Intn(6); n > 0; n-- {
				a, b, c := val(), val(), val()
				inst.MustInsert("w", a, b, c)
				inst.MustInsert("p", a, b)
				inst.MustInsert("q", b, c)
				inst.MustInsert("u", c)
			}
			inst.MustInsert("v", val())
			if r.Intn(2) == 0 {
				rel := inst.Table(names[r.Intn(len(names))]).Relation()
				tp := make([]string, rel.Arity())
				for k := range tp {
					tp[k] = val()
				}
				inst.MustInsert(rel.Name, tp...)
			}
		} else {
			for _, name := range names {
				rel := inst.Table(name).Relation()
				for n := r.Intn(6); n > 0; n-- {
					tp := make([]string, rel.Arity())
					for k := range tp {
						tp[k] = val()
					}
					inst.MustInsert(name, tp...)
				}
			}
		}
		rels := slices.Clone(names)
		r.Shuffle(len(rels), func(i, j int) { rels[i], rels[j] = rels[j], rels[i] })
		rels = rels[:2+r.Intn(len(rels)-1)]
		got, err := inst.PairwiseConsistent(rels...)
		if err != nil {
			t.Fatal(err)
		}
		if want := joinConsistent(t, inst, rels...); got != want {
			t.Fatalf("PairwiseConsistent(%v)=%v, join-based definition %v", rels, got, want)
		}
		outcomes[got]++
	}
	t.Logf("outcomes: %v", outcomes)
	if outcomes[true] < 30 || outcomes[false] < 30 {
		t.Errorf("one-sided property: %v", outcomes)
	}
}

// TestQuickCheckINDsAgainstHashSet: the inclusion check over the right
// side's postings reports the violations a hash set of the right side's
// projected tuples finds, with the same first failing left tuple, on
// random instances under single- and multi-attribute INDs, with and
// without equality.
func TestQuickCheckINDsAgainstHashSet(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation("p", "a", "b")
	s.MustAddRelation("q", "b", "c")
	s.MustAddRelation("w", "a", "b", "c")
	s.MustAddIND("q", []string{"b"}, "p", []string{"b"}, false)
	s.MustAddIND("w", []string{"a", "b"}, "p", []string{"a", "b"}, true)
	s.MustAddIND("w", []string{"c", "b"}, "q", []string{"c", "b"}, false)
	s.MustAddIND("p", []string{"b", "a"}, "w", []string{"c", "a"}, false)
	r := rand.New(rand.NewSource(67))
	vals := []string{"v0", "v1", "v2"}
	project := func(tp Tuple, rel *Relation, attrs []string) string {
		parts := make([]string, len(attrs))
		for k, a := range attrs {
			parts[k] = tp[rel.AttrIndex(a)]
		}
		return strings.Join(parts, "\x00")
	}
	// include is π(left) ⊆ π(right) by a hash set, naming the first left
	// tuple whose projection the right side lacks.
	include := func(inst *Instance, left, right RelAttrs) (string, bool) {
		lt, rt := inst.Table(left.Rel), inst.Table(right.Rel)
		set := map[string]bool{}
		for _, tp := range rt.Tuples() {
			set[project(tp, rt.Relation(), right.Attrs)] = true
		}
		for _, tp := range lt.Tuples() {
			if k := project(tp, lt.Relation(), left.Attrs); !set[k] {
				return fmt.Sprintf("value %q missing from %s", k, right), false
			}
		}
		return "", true
	}
	violated := 0
	for trial := 0; trial < 300; trial++ {
		inst := NewInstance(s)
		for _, rel := range s.Relations() {
			for n := r.Intn(8); n > 0; n-- {
				tp := make([]string, rel.Arity())
				for k := range tp {
					tp[k] = vals[r.Intn(len(vals))]
				}
				inst.MustInsert(rel.Name, tp...)
			}
		}
		var want []Violation
		for _, ind := range s.INDs() {
			if d, ok := include(inst, ind.Left, ind.Right); !ok {
				want = append(want, Violation{Constraint: ind.String(), Detail: d})
			} else if ind.Equality {
				if d, ok := include(inst, ind.Right, ind.Left); !ok {
					want = append(want, Violation{Constraint: ind.String(), Detail: d})
				}
			}
		}
		got := inst.CheckINDs()
		if !slices.Equal(got, want) {
			t.Fatalf("CheckINDs = %v, hash-set reference %v", got, want)
		}
		violated += len(got)
	}
	if violated < 100 {
		t.Errorf("only %d violations in 300 trials: the property barely exercises failures", violated)
	}
}

// TestQuickProjectionLaws: projection in the store's id space equals the
// string-tuple projection row for row, is idempotent and never grows.
func TestQuickProjectionLaws(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 150; trial++ {
		inst := randTwoRelInstance(r, true)
		full := refTable(inst.Table("p"))
		i1, p1, err := projectIDs(t, inst, "p", "a")
		if err != nil {
			t.Fatal(err)
		}
		if len(p1.Tuples) > len(full.Tuples) {
			t.Fatal("projection grew")
		}
		_, p2, err := projectIDs(t, i1, "proj", "a")
		if err != nil {
			t.Fatal(err)
		}
		if len(p2.Tuples) != len(p1.Tuples) {
			t.Fatal("projection not idempotent")
		}
	}
}

// TestQuickEvalAgainstNaive: body satisfaction agrees with a brute-force
// grounding check on random small bodies, and coverage and its witness
// with one on random clauses.
func TestQuickEvalAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	varsPool := []logic.Term{logic.Var("X"), logic.Var("Y"), logic.Var("Z")}
	valPool := []string{"v0", "v1", "v2", "v3"}
	randBody := func() []logic.Atom {
		n := 1 + r.Intn(3)
		out := make([]logic.Atom, n)
		for i := range out {
			pred := "p"
			if r.Intn(2) == 0 {
				pred = "q"
			}
			args := make([]logic.Term, 2)
			for j := range args {
				if r.Intn(3) == 0 {
					args[j] = logic.Const(valPool[r.Intn(len(valPool))])
				} else {
					args[j] = varsPool[r.Intn(len(varsPool))]
				}
			}
			out[i] = logic.NewAtom(pred, args...)
		}
		return out
	}
	naive := func(inst *Instance, body []logic.Atom) bool {
		// Enumerate all assignments of X,Y,Z over the value pool.
		for _, x := range valPool {
			for _, y := range valPool {
				for _, z := range valPool {
					s := logic.NewSubstitution()
					s.Bind("X", logic.Const(x))
					s.Bind("Y", logic.Const(y))
					s.Bind("Z", logic.Const(z))
					ok := true
					for _, a := range body {
						g := a.Apply(s)
						vals := make([]string, g.Arity())
						for i, t := range g.Args {
							vals[i] = t.Name
						}
						if !inst.Table(g.Pred).Contains(vals) {
							ok = false
							break
						}
					}
					if ok {
						return true
					}
				}
			}
		}
		return false
	}
	for trial := 0; trial < 200; trial++ {
		inst := randTwoRelInstance(r, true)
		body := randBody()
		got := satisfiable(inst, body)
		want := naive(inst, body)
		if got != want {
			t.Fatalf("satisfiable=%v naive=%v for body %v over %d/%d tuples",
				got, want, body, inst.Table("p").Len(), inst.Table("q").Len())
		}
	}

	// Coverage: random heads (repeated variables, constants) against
	// random ground examples, some of whose constants the instance has
	// never seen, with bodies that may reference a missing relation or
	// the wrong arity. CoversExample must agree with grounding the whole
	// clause over every assignment. CoverageWitness must find a witness
	// exactly when CoversExample covers, and the witness must map the head
	// onto the example and every body atom onto a stored tuple.
	headVars := []string{"X", "Y", "Z", "W"}
	domain := []string{"v0", "v1", "v2", "v3", "zz", "yy"} // zz and yy are never stored
	randTerm := func(constPct int) logic.Term {
		if r.Intn(100) < constPct {
			return logic.Const(domain[r.Intn(5)])
		}
		return logic.Var(headVars[r.Intn(len(headVars))])
	}
	randClause := func() *logic.Clause {
		head := logic.NewAtom("h")
		for n := 1 + r.Intn(3); n > 0; n-- {
			head.Args = append(head.Args, randTerm(25))
		}
		c := &logic.Clause{Head: head}
		for n := r.Intn(4); n > 0; n-- {
			pred, arity := "p", 2
			switch k := r.Intn(20); {
			case k < 9:
				pred = "q"
			case k == 18:
				pred = "r" // no such relation
			case k == 19:
				arity = 3 // p has arity 2
			}
			a := logic.NewAtom(pred)
			for j := 0; j < arity; j++ {
				a.Args = append(a.Args, randTerm(30))
			}
			c.Body = append(c.Body, a)
		}
		return c
	}
	randExample := func(c *logic.Clause) logic.Atom {
		pred, arity := "h", c.Head.Arity()
		if r.Intn(10) == 0 {
			pred = "g"
		}
		if r.Intn(10) == 0 {
			arity++
		}
		e := logic.NewAtom(pred)
		for j := 0; j < arity; j++ {
			e.Args = append(e.Args, logic.Const(domain[r.Intn(len(domain))]))
		}
		return e
	}
	holds := func(inst *Instance, a logic.Atom) bool {
		tab := inst.Table(a.Pred)
		if tab == nil || tab.Relation().Arity() != a.Arity() {
			return false
		}
		vals := make([]string, a.Arity())
		for i, t := range a.Args {
			vals[i] = t.Name
		}
		return tab.Contains(vals)
	}
	naiveCovers := func(inst *Instance, c *logic.Clause, e logic.Atom) bool {
		var asg [4]int
		for {
			s := logic.NewSubstitution()
			for k, v := range headVars {
				s.Bind(v, logic.Const(domain[asg[k]]))
			}
			if h := c.Head.Apply(s); h.Pred == e.Pred && logic.TermsEqual(h.Args, e.Args) {
				ok := true
				for _, a := range c.Body {
					if !holds(inst, a.Apply(s)) {
						ok = false
						break
					}
				}
				if ok {
					return true
				}
			}
			k := 0
			for ; k < len(asg); k++ {
				if asg[k]++; asg[k] < len(domain) {
					break
				}
				asg[k] = 0
			}
			if k == len(asg) {
				return false
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		inst := randTwoRelInstance(r, true)
		c := randClause()
		for k := 0; k < 4; k++ {
			e := randExample(c)
			got := inst.CoversExample(c, e)
			if want := naiveCovers(inst, c, e); got != want {
				t.Fatalf("CoversExample(%v, %v)=%v naive=%v over p=%v q=%v",
					c, e, got, want, inst.Table("p").Tuples(), inst.Table("q").Tuples())
			}
			w := inst.CoverageWitness(c, e)
			if (w != nil) != got {
				t.Fatalf("CoverageWitness(%v, %v)=%v, CoversExample=%v", c, e, w, got)
			}
			if w == nil {
				continue
			}
			if h := c.Head.Apply(w); !h.Equal(e) {
				t.Fatalf("CoverageWitness(%v, %v)=%v maps the head onto %v", c, e, w, h)
			}
			for _, a := range c.Body {
				if g := a.Apply(w); !g.IsGround() || !holds(inst, g) {
					t.Fatalf("CoverageWitness(%v, %v)=%v grounds %v into no stored tuple", c, e, w, g)
				}
			}
		}
	}
}

// TestQuickCoversIDsMatchesCoversWith: testing an example by its resolved
// symbol ids (CoversMask with ids and no mask) answers as testing it by
// name and leaves the same store statistics on the prober, on random heads
// with constants and repeated variables and on examples holding constants
// the instance never saw.
func TestQuickCoversIDsMatchesCoversWith(t *testing.T) {
	domain := []string{"v0", "v1", "v2", "v3", "zz", "yy"} // zz and yy are never stored
	vars := []string{"X", "Y", "Z"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randTwoRelInstance(r, true)
		term := func(constPct int) logic.Term {
			if r.Intn(100) < constPct {
				return logic.Const(domain[r.Intn(len(domain))])
			}
			return logic.Var(vars[r.Intn(len(vars))])
		}
		c := &logic.Clause{Head: logic.NewAtom("h")}
		for n := 1 + r.Intn(3); n > 0; n-- {
			c.Head.Args = append(c.Head.Args, term(20))
		}
		for n := r.Intn(4); n > 0; n-- {
			pred := "p"
			if r.Intn(2) == 0 {
				pred = "q"
			}
			c.Body = append(c.Body, logic.NewAtom(pred, term(25), term(25)))
		}
		q := inst.Compile(c)
		byName, byID := inst.NewProber(), inst.NewProber()
		for k := 0; k < 8; k++ {
			e := logic.NewAtom("h")
			ids := make([]int32, 0, len(c.Head.Args))
			for range c.Head.Args {
				name := domain[r.Intn(len(domain))]
				e.Args = append(e.Args, logic.Const(name))
				id, ok := inst.Symbols().Lookup(name)
				if !ok {
					id = logic.UnknownSym
				}
				ids = append(ids, id)
			}
			want, got := q.CoversWith(byName, e), q.CoversMask(byID, e, ids, nil)
			if got != want || byID.scanned != byName.scanned || byID.exhausted != byName.exhausted ||
				!slices.Equal(byID.tally.stats, byName.tally.stats) {
				t.Logf("%v on %v: by ids %v, CoversWith %v; scanned %d vs %d; stats %v vs %v",
					c, e, got, want, byID.scanned, byName.scanned, byID.tally.stats, byName.tally.stats)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMaskedCoversMatchesSubClause: testing the sub-clause a keep
// mask and a prefix cut leave of a compiled clause answers as compiling
// that sub-clause and testing it, and leaves the same per-table tally,
// tuples_scanned and eval_budget_exhausted on the prober. Clauses hold
// dead atoms (a missing relation, a wrong arity, a constant no row holds)
// inside and outside the mask, examples hold constants the instance never
// saw, and a small search budget makes some tests run out.
func TestQuickMaskedCoversMatchesSubClause(t *testing.T) {
	domain := []string{"v0", "v1", "v2", "v3", "zz", "yy"} // zz and yy are never stored
	vars := []string{"X", "Y", "Z", "W"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randTwoRelInstance(r, true)
		if r.Intn(4) == 0 {
			inst.SetEvalBudget(1 + r.Intn(6))
		}
		term := func(constPct int) logic.Term {
			if r.Intn(100) < constPct {
				return logic.Const(domain[r.Intn(len(domain))])
			}
			return logic.Var(vars[r.Intn(len(vars))])
		}
		c := &logic.Clause{Head: logic.NewAtom("h")}
		for n := 1 + r.Intn(3); n > 0; n-- {
			c.Head.Args = append(c.Head.Args, term(15))
		}
		for n := r.Intn(7); n > 0; n-- {
			switch k := r.Intn(12); {
			case k == 0:
				c.Body = append(c.Body, logic.NewAtom("missing", term(25), term(25)))
			case k == 1:
				c.Body = append(c.Body, logic.NewAtom("p", term(25)))
			default:
				pred := "p"
				if k%2 == 0 {
					pred = "q"
				}
				c.Body = append(c.Body, logic.NewAtom(pred, term(25), term(25)))
			}
		}
		q := inst.Compile(c)
		masked, whole := inst.NewProber(), inst.NewProber()
		keep := make([]bool, len(c.Body))
		for k := 0; k < 6; k++ {
			cut := r.Intn(len(c.Body) + 1)
			for i := range keep {
				keep[i] = i < cut && r.Intn(3) != 0
			}
			sub := c.Keep(keep)
			e := logic.NewAtom("h")
			ids := make([]int32, 0, len(c.Head.Args))
			for range c.Head.Args {
				name := domain[r.Intn(len(domain))]
				e.Args = append(e.Args, logic.Const(name))
				id, ok := inst.Symbols().Lookup(name)
				if !ok {
					id = logic.UnknownSym
				}
				ids = append(ids, id)
			}
			if r.Intn(2) == 0 {
				ids = nil
			}
			want, got := inst.Compile(sub).CoversWith(whole, e), q.CoversMask(masked, e, ids, keep)
			if got != want || masked.scanned != whole.scanned || masked.exhausted != whole.exhausted ||
				!slices.Equal(masked.tally.stats, whole.tally.stats) {
				t.Logf("%v masked to %v on %v: %v, sub-clause %v; scanned %d vs %d; exhausted %d vs %d; stats %v vs %v",
					c, sub, e, got, want, masked.scanned, whole.scanned, masked.exhausted, whole.exhausted,
					masked.tally.stats, whole.tally.stats)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
