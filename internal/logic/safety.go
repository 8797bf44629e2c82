package logic

// Clause safety and head-connectivity (§7.3 of the paper).

// IsSafe reports whether the clause is safe: every head variable appears in
// some body literal. Safe definitions return finite results over finite
// databases; Castor only emits safe clauses.
func (c *Clause) IsSafe() bool {
	for _, v := range c.Head.Vars() {
		found := false
		for _, a := range c.Body {
			if a.HasVar(v) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// IsSafeDefinition reports whether every clause in the definition is safe.
func IsSafeDefinition(d *Definition) bool {
	for _, c := range d.Clauses {
		if !c.IsSafe() {
			return false
		}
	}
	return true
}

// HeadConnected computes which body literals are head-connected: reachable
// from the head through chains of shared variables. Ground body literals
// count as connected (they constrain nothing but are trivially evaluable);
// literals sharing no variable chain with the head are not.
// The returned slice parallels c.Body.
func HeadConnected(c *Clause) []bool {
	// Variables get dense ids, and each literal's variables become a run
	// of ids in one arena, once per call: the fixpoint passes read ids.
	n := len(c.Head.Args)
	for _, a := range c.Body {
		n += len(a.Args)
	}
	ids := make(map[string]int32, len(c.Body)) // about one variable per literal
	id := func(name string) int32 {
		v, ok := ids[name]
		if !ok {
			v = int32(len(ids))
			ids[name] = v
		}
		return v
	}
	reach := make([]bool, n) // by variable id
	for _, t := range c.Head.Args {
		if t.IsVar {
			reach[id(t.Name)] = true
		}
	}
	vars := make([]int32, 0, n) // literal i's ids are vars[ends[i-1]:ends[i]]
	ends := make([]int, len(c.Body))
	for i, a := range c.Body {
		for _, t := range a.Args {
			if t.IsVar {
				vars = append(vars, id(t.Name))
			}
		}
		ends[i] = len(vars)
	}
	connected := make([]bool, len(c.Body))
	for changed := true; changed; {
		changed = false
		lo := 0
		for i, hi := range ends {
			lit := vars[lo:hi]
			lo = hi
			if connected[i] {
				continue
			}
			touches := len(lit) == 0
			for _, v := range lit {
				if reach[v] {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			connected[i] = true
			changed = true
			for _, v := range lit {
				reach[v] = true
			}
		}
	}
	return connected
}

// PruneNotHeadConnected returns a copy of the clause with every body literal
// that is not head-connected removed, preserving order. ARMG applies this
// after dropping blocking atoms.
func PruneNotHeadConnected(c *Clause) *Clause {
	keep := HeadConnected(c)
	body := make([]Atom, 0, len(c.Body))
	for i, a := range c.Body {
		if keep[i] {
			body = append(body, a)
		}
	}
	return &Clause{Head: c.Head.Clone(), Body: body}
}
