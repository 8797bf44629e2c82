package logic

import (
	"strconv"
	"strings"
)

// CanonicalKey returns a string identifying the clause up to consistent
// variable renaming: variables are replaced by position-of-first-occurrence
// indexes (head first, then body in literal order). Two clauses that differ
// only in variable names share a key; literal order is significant, which
// keeps the key conservative — alpha-equivalent clauses always collide,
// reordered ones may not. That is the right trade for a coverage memo
// cache (§7.5.4): a false split costs one recomputation, a false merge
// would corrupt results.
//
// The encoding is collision-free: variables render as "v<index>", constants
// as "c<len>:<value>", so no constant can impersonate a variable index or
// smuggle a separator.
func CanonicalKey(c *Clause) string {
	if c == nil {
		return ""
	}
	var b strings.Builder
	names := make(map[string]int)
	writeAtom := func(a Atom) {
		b.WriteString(strconv.Itoa(len(a.Pred)))
		b.WriteByte(':')
		b.WriteString(a.Pred)
		for _, t := range a.Args {
			if t.IsVar {
				idx, ok := names[t.Name]
				if !ok {
					idx = len(names)
					names[t.Name] = idx
				}
				b.WriteByte('v')
				b.WriteString(strconv.Itoa(idx))
			} else {
				b.WriteByte('c')
				b.WriteString(strconv.Itoa(len(t.Name)))
				b.WriteByte(':')
				b.WriteString(t.Name)
			}
		}
		b.WriteByte(';')
	}
	writeAtom(c.Head)
	for _, a := range c.Body {
		writeAtom(a)
	}
	return b.String()
}
