package logic

import (
	"fmt"
	"strings"
)

// Clause is a definite Horn clause Head :- Body. Following ProGolem and
// Castor, clauses are *ordered*: the body is a sequence, and the position of
// literals matters to the generalization operators (blocking atoms are
// defined with respect to this order).
type Clause struct {
	Head Atom
	Body []Atom
}

// NewClause builds a clause from a head atom and body atoms.
func NewClause(head Atom, body ...Atom) *Clause {
	return &Clause{Head: head, Body: body}
}

// Len returns the clause length: the number of literals including the head,
// matching the paper's notion used by the clauselength parameter.
func (c *Clause) Len() int { return 1 + len(c.Body) }

// IsGround reports whether every literal in the clause is ground.
func (c *Clause) IsGround() bool {
	if !c.Head.IsGround() {
		return false
	}
	for _, a := range c.Body {
		if !a.IsGround() {
			return false
		}
	}
	return true
}

// Vars returns the distinct variable names in head-then-body,
// first-occurrence order.
func (c *Clause) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(a Atom) {
		for _, t := range a.Args {
			if t.IsVar && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
	}
	add(c.Head)
	for _, a := range c.Body {
		add(a)
	}
	return out
}

// NumVars returns the number of distinct variables in the clause. Castor's
// bottom-clause construction uses this as its stopping condition because it
// is invariant under vertical (de)composition.
func (c *Clause) NumVars() int { return len(c.Vars()) }

// Constants returns the distinct constants in the clause, in
// first-occurrence order.
func (c *Clause) Constants() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(a Atom) {
		for _, t := range a.Args {
			if !t.IsVar && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
	}
	add(c.Head)
	for _, a := range c.Body {
		add(a)
	}
	return out
}

// HeadVars returns the distinct variable names of the head.
func (c *Clause) HeadVars() []string { return c.Head.Vars() }

// Apply returns a new clause with the substitution applied throughout.
func (c *Clause) Apply(s Substitution) *Clause {
	body := make([]Atom, len(c.Body))
	for i, a := range c.Body {
		body[i] = a.Apply(s)
	}
	return &Clause{Head: c.Head.Apply(s), Body: body}
}

// Clone returns a deep copy of the clause.
func (c *Clause) Clone() *Clause {
	body := make([]Atom, len(c.Body))
	for i, a := range c.Body {
		body[i] = a.Clone()
	}
	return &Clause{Head: c.Head.Clone(), Body: body}
}

// Equal reports syntactic equality, including body order.
func (c *Clause) Equal(d *Clause) bool {
	if c == nil || d == nil {
		return c == d
	}
	if !c.Head.Equal(d.Head) || len(c.Body) != len(d.Body) {
		return false
	}
	for i := range c.Body {
		if !c.Body[i].Equal(d.Body[i]) {
			return false
		}
	}
	return true
}

// Keep returns the clause that keeps the body literals keep marks, in
// order, under a copy of the head; keep has one entry per body literal.
// Like RemoveBodyAt, it shares the kept literals with c.
func (c *Clause) Keep(keep []bool) *Clause {
	n := 0
	for _, in := range keep {
		if in {
			n++
		}
	}
	body := make([]Atom, 0, n)
	for i, a := range c.Body {
		if keep[i] {
			body = append(body, a)
		}
	}
	return &Clause{Head: c.Head.Clone(), Body: body}
}

// RemoveBodyAt returns a copy of the clause with the i-th body literal
// removed.
func (c *Clause) RemoveBodyAt(i int) *Clause {
	body := make([]Atom, 0, len(c.Body)-1)
	body = append(body, c.Body[:i]...)
	body = append(body, c.Body[i+1:]...)
	return &Clause{Head: c.Head.Clone(), Body: body}
}

// Standardize renames every variable in the clause to V<n>, V<n+1>, … in
// first-occurrence order, returning the renamed clause and the next free
// index. Used to standardize clauses apart.
func (c *Clause) Standardize(start int) (*Clause, int) {
	s := NewSubstitution()
	n := start
	for _, v := range c.Vars() {
		s[v] = Var(fmt.Sprintf("V%d", n))
		n++
	}
	return c.Apply(s), n
}

// String renders the clause in Datalog style:
//
//	head(args) :- b1(args), b2(args).
//
// A bodiless clause renders as "head(args).".
func (c *Clause) String() string {
	var b strings.Builder
	b.WriteString(c.Head.String())
	if len(c.Body) > 0 {
		b.WriteString(" :- ")
		for i, a := range c.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
	}
	b.WriteByte('.')
	return b.String()
}

// Definition is a Horn definition: a set of clauses sharing the same head
// predicate (the target relation). Clause order is the order of learning.
type Definition struct {
	// Target is the head predicate symbol shared by all clauses.
	Target string
	// Clauses are the disjuncts of the definition.
	Clauses []*Clause
}

// NewDefinition builds a definition for the given target relation.
func NewDefinition(target string, clauses ...*Clause) *Definition {
	return &Definition{Target: target, Clauses: clauses}
}

// Add appends a clause to the definition.
func (d *Definition) Add(c *Clause) { d.Clauses = append(d.Clauses, c) }

// Len returns the number of clauses.
func (d *Definition) Len() int { return len(d.Clauses) }

// IsEmpty reports whether the definition has no clauses.
func (d *Definition) IsEmpty() bool { return len(d.Clauses) == 0 }

// Clone returns a deep copy of the definition.
func (d *Definition) Clone() *Definition {
	out := &Definition{Target: d.Target, Clauses: make([]*Clause, len(d.Clauses))}
	for i, c := range d.Clauses {
		out.Clauses[i] = c.Clone()
	}
	return out
}

// String renders one clause per line.
func (d *Definition) String() string {
	lines := make([]string, len(d.Clauses))
	for i, c := range d.Clauses {
		lines[i] = c.String()
	}
	return strings.Join(lines, "\n")
}
