package relstore

import (
	"fmt"
	"strings"
)

// Constraint validation: checking that an instance satisfies its schema's
// FDs and INDs, and testing whether a subset IND happens to hold as an
// equality on a given instance (the §7.4 preprocessing step of Castor's
// general-decomposition mode).

// Violation describes one constraint violation found in an instance.
type Violation struct {
	Constraint string // the violated FD/IND, rendered
	Detail     string // witness description
}

// String renders the violation.
func (v Violation) String() string { return v.Constraint + ": " + v.Detail }

// projEqualRows compares the projections of row ra of a and row rb of b
// onto the given column lists, as interned ids. The tables must intern
// through the same symbol table (both belong to one instance).
func projEqualRows(a *Table, ra int, aIdx []int, b *Table, rb int, bIdx []int) bool {
	abase, bbase := ra*a.rel.Arity(), rb*b.rel.Arity()
	for i := range aIdx {
		if a.data[abase+aIdx[i]] != b.data[bbase+bIdx[i]] {
			return false
		}
	}
	return true
}

// projHash hashes the projection of row r onto the columns idx.
func (t *Table) projHash(r int, idx []int) uint64 {
	base := r * t.rel.Arity()
	h := uint64(1469598103934665603)
	for _, p := range idx {
		h ^= uint64(uint32(t.data[base+p]))
		h *= 1099511628211
	}
	return h
}

// projString renders the projection of row r for a violation message (the
// only place projected values are externalized).
func (t *Table) projString(r int, idx []int) string {
	return projectKey(t.materialize(r, nil), idx)
}

// CheckFDs returns a violation for every FD of the schema that does not
// hold in the instance. The determinant/dependent projections compare as
// interned ids grouped by hash bucket; no key strings are built unless a
// violation is reported.
func (i *Instance) CheckFDs() []Violation {
	var out []Violation
	for _, fd := range i.schema.FDs() {
		t := i.tables[fd.Rel]
		if t == nil {
			continue
		}
		fromIdx := attrPositions(t.rel, fd.From)
		toIdx := attrPositions(t.rel, fd.To)
		seen := make(map[uint64][]int32, t.Len())
		for r := 0; r < t.nrows; r++ {
			h := t.projHash(r, fromIdx)
			prev := -1
			for _, pr := range seen[h] {
				if projEqualRows(t, int(pr), fromIdx, t, r, fromIdx) {
					prev = int(pr)
					break
				}
			}
			if prev < 0 {
				seen[h] = append(seen[h], int32(r))
				continue
			}
			if !projEqualRows(t, prev, toIdx, t, r, toIdx) {
				out = append(out, Violation{
					Constraint: fd.String(),
					Detail: fmt.Sprintf("key %q maps to both %q and %q",
						t.projString(r, fromIdx), t.projString(prev, toIdx), t.projString(r, toIdx)),
				})
				break
			}
		}
	}
	return out
}

// CheckINDs returns a violation for every IND of the schema that does not
// hold in the instance. INDs with equality are checked in both directions.
func (i *Instance) CheckINDs() []Violation {
	var out []Violation
	for _, ind := range i.schema.INDs() {
		if v, ok := i.checkInclusion(ind.Left, ind.Right); !ok {
			out = append(out, Violation{Constraint: ind.String(), Detail: v})
			continue
		}
		if ind.Equality {
			if v, ok := i.checkInclusion(ind.Right, ind.Left); !ok {
				out = append(out, Violation{Constraint: ind.String(), Detail: v})
			}
		}
	}
	return out
}

// checkInclusion verifies π_lattrs(left) ⊆ π_rattrs(right), returning a
// witness description — the lowest failing left row — when it fails. The
// right side is built once as a hash set of interned projections.
func (i *Instance) checkInclusion(left, right RelAttrs) (string, bool) {
	lt, rt := i.tables[left.Rel], i.tables[right.Rel]
	if lt == nil || rt == nil {
		return "relation missing from instance", false
	}
	lIdx := attrPositions(lt.rel, left.Attrs)
	rIdx := attrPositions(rt.rel, right.Attrs)
	rSet := make(map[uint64][]int32, rt.Len())
	for r := 0; r < rt.nrows; r++ {
		h := rt.projHash(r, rIdx)
		dup := false
		for _, pr := range rSet[h] {
			if projEqualRows(rt, int(pr), rIdx, rt, r, rIdx) {
				dup = true
				break
			}
		}
		if !dup {
			rSet[h] = append(rSet[h], int32(r))
		}
	}
rows:
	for r := 0; r < lt.nrows; r++ {
		for _, pr := range rSet[lt.projHash(r, lIdx)] {
			if projEqualRows(lt, r, lIdx, rt, int(pr), rIdx) {
				continue rows
			}
		}
		return fmt.Sprintf("value %q missing from %s", lt.projString(r, lIdx), right), false
	}
	return "", true
}

// INDHoldsAsEquality reports whether a subset IND holds as an equality on
// this instance: π(left) = π(right). Castor's general-decomposition
// preprocessing (§7.4) promotes such INDs to INDs with equality.
func (i *Instance) INDHoldsAsEquality(ind IND) bool {
	if _, ok := i.checkInclusion(ind.Left, ind.Right); !ok {
		return false
	}
	_, ok := i.checkInclusion(ind.Right, ind.Left)
	return ok
}

// PromoteEqualityINDs returns a copy of the schema in which every subset
// IND that holds as an equality on the instance is promoted to an IND with
// equality. This is Castor's §7.4 preprocessing step.
func (i *Instance) PromoteEqualityINDs() *Schema {
	out := i.schema.Clone()
	for k, ind := range out.inds {
		if !ind.Equality && i.INDHoldsAsEquality(ind) {
			out.inds[k].Equality = true
		}
	}
	return out
}

// Validate checks all constraints and returns a single error summarizing
// the violations, or nil.
func (i *Instance) Validate() error {
	var all []Violation
	all = append(all, i.CheckFDs()...)
	all = append(all, i.CheckINDs()...)
	if len(all) == 0 {
		return nil
	}
	msgs := make([]string, len(all))
	for k, v := range all {
		msgs[k] = v.String()
	}
	return fmt.Errorf("relstore: %d constraint violations:\n%s", len(all), strings.Join(msgs, "\n"))
}

// attrPositions maps attribute names to column positions in rel. It panics
// on unknown attributes: schemas validate INDs/FDs at registration time, so
// reaching this with a bad attribute is a programming error.
func attrPositions(rel *Relation, attrs []string) []int {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		p := rel.AttrIndex(a)
		if p < 0 {
			panic(fmt.Sprintf("relstore: attribute %q not in %s", a, rel))
		}
		out[i] = p
	}
	return out
}

// projectKey builds a canonical key of the tuple restricted to the given
// column positions.
func projectKey(tp Tuple, idx []int) string {
	parts := make([]string, len(idx))
	for i, p := range idx {
		parts[i] = tp[p]
	}
	return strings.Join(parts, "\x00")
}
