package relstore

import (
	"fmt"
	"slices"

	"repro/internal/logic"
)

// The instance mapping operators: the building blocks of the vertical
// (de)compositions of §4 (Definition 4.1), which internal/transform chains
// into τ and τ⁻¹. Each reads one instance's tables and writes another
// instance's through a Translation of symbol ids, so no row is turned into
// strings: a source symbol's name is read once, when the output first
// meets it.
//
// The output is the one materializing every row, joining and projecting
// over strings and inserting the result gave: the same rows in the same
// row order, and the same symbol-table order, because the translation
// interns in the order those inserts met the values.

// Translation maps the symbol ids of a source instance into the symbol
// table of a fresh output instance. Each source symbol is interned once,
// the first time a row written to the output holds it, so output ids
// follow first sight over the rows in writing order. Distinct source
// symbols get distinct output ids, so translated rows of a set are still a
// set. Single-writer, like Insert; the source must not change while the
// translation is in use.
type Translation struct {
	src, out *Instance
	ids      []int32 // output id by source id; -1 until first sight
}

// NewTranslation returns a translation from src into a new, empty instance
// of schema, whose symbol table is sized for every symbol of src.
func NewTranslation(src *Instance, schema *Schema) *Translation {
	n := src.syms.Len()
	tr := &Translation{src: src, out: newInstanceOn(schema, true, logic.NewSymbolsCap(n)), ids: make([]int32, n)}
	for i := range tr.ids {
		tr.ids[i] = -1
	}
	return tr
}

// Output returns the instance the translation writes.
func (tr *Translation) Output() *Instance { return tr.out }

// id returns the output id of source symbol v, interning its name on
// first sight.
func (tr *Translation) id(v int32) int32 {
	o := tr.ids[v]
	if o < 0 {
		o = tr.out.syms.Intern(tr.src.syms.Name(v))
		tr.ids[v] = o
	}
	return o
}

// Copy copies relation rel of the source, row for row, into the output's
// table of the same name, which must be empty. The rows are sized once,
// and they go into the output's row set without duplicate probes: the
// source rows are a set and the translation is injective. A relation the
// source lacks copies nothing.
func (tr *Translation) Copy(rel string) error {
	st, ot := tr.src.tables[rel], tr.out.tables[rel]
	switch {
	case st == nil:
		return nil
	case ot == nil:
		return fmt.Errorf("relstore: insert into unknown relation %q", rel)
	case ot.rel.Arity() != st.rel.Arity():
		return fmt.Errorf("relstore: insert into %s with %d values", ot.rel, st.rel.Arity())
	case ot.nrows > 0:
		return fmt.Errorf("relstore: copy of %q into a table that has rows", rel)
	}
	src := st.data[:st.nrows*st.rel.Arity()]
	ot.stage()
	ot.data = make([]int32, len(src))
	for k, v := range src {
		ot.data[k] = tr.id(v)
	}
	ot.nrows = st.nrows
	ot.set.init(st.nrows)
	for r := range st.nrows {
		ot.set.insertKnownAbsent(ot, int32(r))
	}
	return nil
}

// Project writes the projection of source relation src onto the attributes
// of output relation part into part's table: each source row in row order,
// its values in part's attribute order. The output's row set drops
// repeated rows.
func (tr *Translation) Project(src, part string) error {
	st, ot := tr.src.tables[src], tr.out.tables[part]
	if st == nil {
		return fmt.Errorf("relstore: projection of unknown relation %q", src)
	}
	if ot == nil {
		return fmt.Errorf("relstore: insert into unknown relation %q", part)
	}
	pos, err := positions(st.rel.Attrs, ot.rel.Attrs)
	if err != nil {
		return err
	}
	for r := range st.nrows {
		row := st.row(r)
		base := ot.stage()
		for _, p := range pos {
			ot.data = append(ot.data, tr.id(row[p]))
		}
		ot.commit(base)
	}
	return nil
}

// joinHop is one later source of a composition: the columns of the
// attributes it shares with the sources before it, their positions in the
// accumulated row, and the columns of its new attributes, which extend
// the accumulated row from position off.
type joinHop struct {
	t        *Table
	cols, at []int
	keep     []int
	off      int
	vals     []int32 // the shared values of the current accumulated row
	partners []int32 // its partner rows, ascending
}

// Compose writes the natural join of the source relations into output
// relation target, projected onto target's attributes. The join runs left
// to right over the sources' postings, depth first: each row of the first
// source in row order, then its partners in the next source in ascending
// row order (the rows holding its values of every shared attribute,
// probed on the most selective one), and so on. That is the order joining
// the accumulated rows with each source in turn gives them. The rows go
// into target in that order; its row set drops repeats. Compose fails on
// zero sources, an unknown source, a source sharing no attribute with the
// sources before it (a Cartesian product, which Definition 4.1 excludes)
// and a target attribute no source holds.
func (tr *Translation) Compose(target string, sources ...string) error {
	if len(sources) == 0 {
		return fmt.Errorf("relstore: join of zero relations")
	}
	var attrs []string // the accumulated row's attributes
	hops := make([]joinHop, 0, len(sources)-1)
	for k, name := range sources {
		t := tr.src.tables[name]
		if t == nil {
			return fmt.Errorf("relstore: join over unknown relation %q", name)
		}
		if k == 0 {
			attrs = slices.Clone(t.rel.Attrs)
			continue
		}
		hop := joinHop{t: t, off: len(attrs)}
		for p, a := range attrs {
			if c := t.rel.AttrIndex(a); c >= 0 {
				hop.cols = append(hop.cols, c)
				hop.at = append(hop.at, p)
			}
		}
		if len(hop.cols) == 0 {
			return fmt.Errorf("joining %q: relstore: natural join with no shared attributes (would be a Cartesian product)", name)
		}
		for c, a := range t.rel.Attrs {
			if !slices.Contains(hop.cols, c) {
				hop.keep = append(hop.keep, c)
				attrs = append(attrs, a)
			}
		}
		hop.vals = make([]int32, len(hop.cols))
		hops = append(hops, hop)
	}
	ot := tr.out.tables[target]
	if ot == nil {
		return fmt.Errorf("relstore: insert into unknown relation %q", target)
	}
	pos, err := positions(attrs, ot.rel.Attrs)
	if err != nil {
		return err
	}
	row := make([]int32, len(attrs))
	var walk func(h int)
	walk = func(h int) {
		if h == len(hops) {
			base := ot.stage()
			for _, p := range pos {
				ot.data = append(ot.data, tr.id(row[p]))
			}
			ot.commit(base)
			return
		}
		hop := &hops[h]
		for k, p := range hop.at {
			hop.vals[k] = row[p]
		}
		hop.partners = hop.t.AppendRowsWith(hop.partners[:0], hop.cols, hop.vals, nil)
		for _, r := range hop.partners {
			prow := hop.t.row(int(r))
			for k, c := range hop.keep {
				row[hop.off+k] = prow[c]
			}
			walk(h + 1)
		}
	}
	first := tr.src.tables[sources[0]]
	for r := range first.nrows {
		copy(row, first.row(r))
		walk(0)
	}
	return nil
}

// positions maps attrs to their positions in from, failing on one from
// lacks.
func positions(from, attrs []string) ([]int, error) {
	pos := make([]int, len(attrs))
	for k, a := range attrs {
		if pos[k] = slices.Index(from, a); pos[k] < 0 {
			return nil, fmt.Errorf("relstore: projection attribute %q not present", a)
		}
	}
	return pos, nil
}
