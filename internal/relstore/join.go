package relstore

import (
	"fmt"
)

// Natural join and projection — the two operators that define composition
// and decomposition transformations (§4 of the paper).

// JoinResult is an anonymous relation instance produced by join/projection:
// an attribute list plus tuples.
type JoinResult struct {
	Attrs  []string
	Tuples []Tuple
}

// tupleHash mixes a string tuple into a 64-bit key (FNV-1a over the
// values with a separator), the hashed replacement of the old
// strings.Join dedupe key.
func tupleHash(tp Tuple) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range tp {
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= 1099511628211
		}
		h ^= 0xff // separator: ("a","bc") must differ from ("ab","c")
		h *= 1099511628211
	}
	return h
}

// dedup removes duplicate tuples in place, preserving first occurrence.
// Duplicates are detected by hash bucket plus exact comparison: no joined
// key strings are built.
func (r *JoinResult) dedup() {
	seen := make(map[uint64][]int, len(r.Tuples))
	out := r.Tuples[:0]
	for _, tp := range r.Tuples {
		h := tupleHash(tp)
		dup := false
		for _, k := range seen[h] {
			if out[k].Equal(tp) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], len(out))
			out = append(out, tp)
		}
	}
	r.Tuples = out
}

// NaturalJoin joins two intermediate results on their shared attributes.
// Per the paper's Definition 4.1 restriction, the inputs must share at
// least one attribute (no Cartesian products).
func NaturalJoin(a, b *JoinResult) (*JoinResult, error) {
	shared := sharedAttrs(a.Attrs, b.Attrs)
	if len(shared) == 0 {
		return nil, fmt.Errorf("relstore: natural join with no shared attributes (would be a Cartesian product)")
	}
	aPos := make([]int, len(shared))
	bPos := make([]int, len(shared))
	for i, s := range shared {
		aPos[i] = attrPos(a.Attrs, s)
		bPos[i] = attrPos(b.Attrs, s)
	}
	// Output attributes: all of a, then b's non-shared.
	outAttrs := append([]string(nil), a.Attrs...)
	var bKeep []int
	for i, attr := range b.Attrs {
		if attrPos(shared, attr) < 0 {
			outAttrs = append(outAttrs, attr)
			bKeep = append(bKeep, i)
		}
	}
	// Hash join on the shared-attribute key.
	index := make(map[string][]Tuple, len(b.Tuples))
	for _, bt := range b.Tuples {
		k := projectKey(bt, bPos)
		index[k] = append(index[k], bt)
	}
	out := &JoinResult{Attrs: outAttrs}
	for _, at := range a.Tuples {
		k := projectKey(at, aPos)
		for _, bt := range index[k] {
			tp := make(Tuple, 0, len(outAttrs))
			tp = append(tp, at...)
			for _, i := range bKeep {
				tp = append(tp, bt[i])
			}
			out.Tuples = append(out.Tuples, tp)
		}
	}
	out.dedup()
	return out, nil
}

// TableResult adapts a stored table to a JoinResult. The tuples are
// materialized from the columnar store (O(n)); callers must not mutate
// them.
func TableResult(t *Table) *JoinResult {
	return &JoinResult{Attrs: t.rel.Attrs, Tuples: t.Tuples()}
}

// JoinRelations natural-joins the named relations of the instance left to
// right. Order matters only for attribute ordering of the result.
func (i *Instance) JoinRelations(rels ...string) (*JoinResult, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("relstore: join of zero relations")
	}
	t := i.Table(rels[0])
	if t == nil {
		return nil, fmt.Errorf("relstore: join over unknown relation %q", rels[0])
	}
	acc := TableResult(t)
	for _, name := range rels[1:] {
		t := i.Table(name)
		if t == nil {
			return nil, fmt.Errorf("relstore: join over unknown relation %q", name)
		}
		var err error
		acc, err = NaturalJoin(acc, TableResult(t))
		if err != nil {
			return nil, fmt.Errorf("joining %q: %w", name, err)
		}
	}
	return acc, nil
}

// Project restricts a result to the named attributes, deduplicating.
func Project(r *JoinResult, attrs []string) (*JoinResult, error) {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		p := attrPos(r.Attrs, a)
		if p < 0 {
			return nil, fmt.Errorf("relstore: projection attribute %q not present", a)
		}
		pos[i] = p
	}
	out := &JoinResult{Attrs: append([]string(nil), attrs...)}
	for _, tp := range r.Tuples {
		proj := make(Tuple, len(pos))
		for i, p := range pos {
			proj[i] = tp[p]
		}
		out.Tuples = append(out.Tuples, proj)
	}
	out.dedup()
	return out, nil
}

// PairwiseConsistent reports whether the join of the named relations is
// pairwise consistent: no relation loses tuples when joined with any other
// relation it shares attributes with (§4). For relations x and y sharing
// attributes S that is exactly π_S(x) ⊆ π_S(y), checked as an inclusion
// semi-join over interned rows; nothing is joined or materialized.
func (i *Instance) PairwiseConsistent(rels ...string) (bool, error) {
	for x := 0; x < len(rels); x++ {
		for y := 0; y < len(rels); y++ {
			if x == y {
				continue
			}
			tx, ty := i.Table(rels[x]), i.Table(rels[y])
			if tx == nil || ty == nil {
				return false, fmt.Errorf("relstore: unknown relation in consistency check")
			}
			shared := tx.rel.SharedAttrs(ty.rel)
			if len(shared) == 0 {
				continue
			}
			if _, ok := i.checkInclusion(RelAttrs{Rel: rels[x], Attrs: shared}, RelAttrs{Rel: rels[y], Attrs: shared}); !ok {
				return false, nil
			}
		}
	}
	return true, nil
}

func sharedAttrs(a, b []string) []string {
	var out []string
	for _, x := range a {
		if attrPos(b, x) >= 0 {
			out = append(out, x)
		}
	}
	return out
}

func attrPos(attrs []string, a string) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	return -1
}
