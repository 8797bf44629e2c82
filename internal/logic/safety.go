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
	cv := NewClauseVars(c)
	connected := make([]bool, len(c.Body))
	cv.HeadConnected(nil, connected, make([]bool, cv.NumVars()))
	return connected
}

// ClauseVars is a clause's variables as dense ids, listed per literal
// once, so that head connectivity can be asked of the clause and of any
// sub-clause keeping some of its body literals without listing them again.
type ClauseVars struct {
	ids  []int32 // the head's ids, then each body literal's
	ends []int32 // body literal i's ids are ids[ends[i]:ends[i+1]]; the head's ids[:ends[0]]
	n    int     // distinct variables
}

// NewClauseVars numbers the clause's variables in first-occurrence order,
// head first, and lists each literal's.
func NewClauseVars(c *Clause) ClauseVars {
	n := len(c.Head.Args)
	for _, a := range c.Body {
		n += len(a.Args)
	}
	seen := make(map[string]int32, len(c.Body)) // about one variable per literal
	cv := ClauseVars{ids: make([]int32, 0, n), ends: make([]int32, len(c.Body)+1)}
	add := func(a Atom) {
		for _, t := range a.Args {
			if !t.IsVar {
				continue
			}
			v, ok := seen[t.Name]
			if !ok {
				v = int32(len(seen))
				seen[t.Name] = v
			}
			cv.ids = append(cv.ids, v)
		}
	}
	add(c.Head)
	cv.ends[0] = int32(len(cv.ids))
	for i, a := range c.Body {
		add(a)
		cv.ends[i+1] = int32(len(cv.ids))
	}
	cv.n = len(seen)
	return cv
}

// NumVars returns the number of distinct variables of the clause.
func (cv *ClauseVars) NumVars() int { return cv.n }

// HeadConnected is HeadConnected of the sub-clause keeping the body
// literals keep marks, in order (all of them when keep is nil): it sets
// connected[i], for each body literal i, to whether keep marks it and it is
// head-connected in that sub-clause. reach is scratch of at least NumVars
// entries. The fixpoint reads each literal's ids, so a pass costs no
// lookups however many passes a chain takes.
func (cv *ClauseVars) HeadConnected(keep, connected, reach []bool) {
	reach = reach[:cv.n]
	clear(reach)
	clear(connected)
	for _, v := range cv.ids[:cv.ends[0]] {
		reach[v] = true
	}
	for changed := true; changed; {
		changed = false
		for i := range connected {
			if connected[i] || keep != nil && !keep[i] {
				continue
			}
			lit := cv.ids[cv.ends[i]:cv.ends[i+1]]
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
}

// PruneNotHeadConnected returns a copy of the clause with every body literal
// that is not head-connected removed, preserving order. ARMG applies this
// after dropping blocking atoms.
func PruneNotHeadConnected(c *Clause) *Clause {
	return c.Keep(HeadConnected(c))
}
