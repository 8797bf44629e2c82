package transform

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/relstore"
)

// strRel is an anonymous relation over string tuples, the operand of the
// reference instance mapping below.
type strRel struct {
	attrs  []string
	tuples [][]string
}

// joinKey joins the values at pos into one map key.
func joinKey(tp []string, pos []int) string {
	parts := make([]string, len(pos))
	for i, p := range pos {
		parts[i] = tp[p]
	}
	return strings.Join(parts, "\x00")
}

// dedup drops repeated tuples, keeping first occurrences in order.
func (r *strRel) dedup() *strRel {
	seen := map[string]bool{}
	out := r.tuples[:0]
	all := make([]int, len(r.attrs))
	for i := range all {
		all[i] = i
	}
	for _, tp := range r.tuples {
		if k := joinKey(tp, all); !seen[k] {
			seen[k] = true
			out = append(out, tp)
		}
	}
	r.tuples = out
	return r
}

// join is the natural join over string tuples: a hash join on the shared
// attributes taking r's tuples in order, each with its partners in s in
// s's order.
func (r *strRel) join(s *strRel) (*strRel, error) {
	var rPos, sPos, sKeep []int
	out := &strRel{attrs: slices.Clone(r.attrs)}
	for i, a := range s.attrs {
		if p := slices.Index(r.attrs, a); p >= 0 {
			rPos, sPos = append(rPos, p), append(sPos, i)
		} else {
			out.attrs = append(out.attrs, a)
			sKeep = append(sKeep, i)
		}
	}
	if len(rPos) == 0 {
		return nil, errors.New("relstore: natural join with no shared attributes (would be a Cartesian product)")
	}
	index := map[string][][]string{}
	for _, st := range s.tuples {
		k := joinKey(st, sPos)
		index[k] = append(index[k], st)
	}
	for _, rt := range r.tuples {
		for _, st := range index[joinKey(rt, rPos)] {
			tp := slices.Clone(rt)
			for _, i := range sKeep {
				tp = append(tp, st[i])
			}
			out.tuples = append(out.tuples, tp)
		}
	}
	return out.dedup(), nil
}

// project restricts r to attrs, dropping repeats.
func (r *strRel) project(attrs []string) (*strRel, error) {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		if pos[i] = slices.Index(r.attrs, a); pos[i] < 0 {
			return nil, fmt.Errorf("relstore: projection attribute %q not present", a)
		}
	}
	out := &strRel{attrs: slices.Clone(attrs)}
	for _, tp := range r.tuples {
		proj := make([]string, len(pos))
		for i, p := range pos {
			proj[i] = tp[p]
		}
		out.tuples = append(out.tuples, proj)
	}
	return out.dedup(), nil
}

// tableRel materializes a stored table.
func tableRel(t *relstore.Table) *strRel {
	out := &strRel{attrs: t.Relation().Attrs}
	for _, tp := range t.Tuples() {
		out.tuples = append(out.tuples, tp)
	}
	return out
}

// refApplyStep is one step of τ over string tuples: every row materialized,
// joined and projected as strings, the result inserted into a fresh
// instance, as the instance mapping ran before it moved into the store's
// id space. Pairwise consistency is checked as string semi-joins.
func refApplyStep(st *step, inst *relstore.Instance, strict bool) (*relstore.Instance, error) {
	out := relstore.NewInstance(st.to)
	insert := func(rel string, r *strRel) {
		for _, tp := range r.tuples {
			out.MustInsert(rel, tp...)
		}
	}
	copyOthers := func(own ...string) {
		for _, r := range st.from.Relations() {
			if t := inst.Table(r.Name); t != nil && !slices.Contains(own, r.Name) {
				insert(r.Name, tableRel(t))
			}
		}
	}
	switch st.kind {
	case stepDecompose:
		copyOthers(st.source)
		full := tableRel(inst.Table(st.source))
		for _, part := range st.parts {
			proj, err := full.project(part.Attrs)
			if err != nil {
				return nil, fmt.Errorf("transform: projecting %q: %w", part.Name, err)
			}
			insert(part.Name, proj)
		}
	case stepCompose:
		if strict && !refConsistent(inst, st.sources) {
			return nil, fmt.Errorf("transform: composing %v would lose tuples (instance not pairwise consistent); use ApplyLossy for general composition", st.sources)
		}
		copyOthers(st.sources...)
		joined := tableRel(inst.Table(st.sources[0]))
		for _, name := range st.sources[1:] {
			var err error
			if joined, err = joined.join(tableRel(inst.Table(name))); err != nil {
				return nil, fmt.Errorf("transform: composing %q: %w", st.target, fmt.Errorf("joining %q: %w", name, err))
			}
		}
		reordered, err := joined.project(st.targetAttr)
		if err != nil {
			return nil, err
		}
		insert(st.target, reordered)
	}
	return out, nil
}

// refConsistent reports pairwise consistency: π_S(x) ⊆ π_S(y) for every
// two sources x, y sharing attributes S.
func refConsistent(inst *relstore.Instance, sources []string) bool {
	for _, x := range sources {
		for _, y := range sources {
			tx, ty := inst.Table(x), inst.Table(y)
			shared := tx.Relation().SharedAttrs(ty.Relation())
			if x == y || len(shared) == 0 {
				continue
			}
			px, _ := tableRel(tx).project(shared)
			py, _ := tableRel(ty).project(shared)
			have := map[string]bool{}
			for _, tp := range py.tuples {
				have[strings.Join(tp, "\x00")] = true
			}
			for _, tp := range px.tuples {
				if !have[strings.Join(tp, "\x00")] {
					return false
				}
			}
		}
	}
	return true
}

// sameInstance reports how two instances of schema differ: in a
// relation's rows or their order, or in the order their symbol tables
// interned the values. It returns "" when they are byte-identical.
func sameInstance(schema *relstore.Schema, got, want *relstore.Instance) string {
	for _, rel := range schema.Relations() {
		g, w := got.Table(rel.Name).Tuples(), want.Table(rel.Name).Tuples()
		if !slices.EqualFunc(g, w, relstore.Tuple.Equal) {
			return fmt.Sprintf("relation %s holds %v, reference %v", rel.Name, g, w)
		}
	}
	gs, ws := got.Symbols(), want.Symbols()
	if gs.Len() != ws.Len() {
		return fmt.Sprintf("%d symbols, reference %d", gs.Len(), ws.Len())
	}
	for id := range int32(gs.Len()) {
		if gs.Name(id) != ws.Name(id) {
			return fmt.Sprintf("symbol %d is %q, reference %q", id, gs.Name(id), ws.Name(id))
		}
	}
	return ""
}

// applyOutcome is what the property saw one run of a pipeline do.
type applyOutcome int

const (
	applied    applyOutcome = iota // Apply mapped the instance
	lostTuples                     // Apply refused it, ApplyLossy did not
	cartesian                      // a composition met a Cartesian product
)

// checkApply runs p over inst in both modes, step by step through the
// id-space operators and through refApplyStep, and fails the test unless
// every step gives the same error or a byte-identical instance, and Apply
// or ApplyLossy ends where the steps do. It returns the outcome and the
// strict image (nil when Apply failed).
func checkApply(t *testing.T, trial int, p *Pipeline, inst *relstore.Instance) (applyOutcome, *relstore.Instance) {
	t.Helper()
	var outcome applyOutcome
	var image *relstore.Instance
	for _, strict := range []bool{true, false} {
		cur, ref := inst, inst
		var err error
		for k := range p.steps {
			st := &p.steps[k]
			next, gotErr := st.applyInstance(cur, strict)
			want, wantErr := refApplyStep(st, ref, strict)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d strict=%v step %d: error %v, reference %v", trial, strict, k, gotErr, wantErr)
			}
			if err = gotErr; err != nil {
				break
			}
			if diff := sameInstance(st.to, next, want); diff != "" {
				t.Fatalf("trial %d strict=%v step %d: %s", trial, strict, k, diff)
			}
			cur, ref = next, want
		}
		apply := p.ApplyLossy
		if strict {
			apply = p.Apply
		}
		whole, wholeErr := apply(inst)
		if (wholeErr == nil) != (err == nil) || err != nil && wholeErr.Error() != err.Error() {
			t.Fatalf("trial %d strict=%v: pipeline error %v, its steps' %v", trial, strict, wholeErr, err)
		}
		if err == nil {
			if diff := sameInstance(p.To(), whole, cur); diff != "" {
				t.Fatalf("trial %d strict=%v: pipeline and its steps differ: %s", trial, strict, diff)
			}
		}
		switch {
		case strict && err == nil:
			outcome, image = applied, whole
		case strict:
			outcome = lostTuples
		case err != nil:
			outcome = cartesian // the only error ApplyLossy has
		}
	}
	return outcome, image
}

// attrPool holds the attributes random relations draw from.
var attrPool = []string{"a", "b", "c", "d", "e"}

// shuffled returns the strings in random order.
func shuffled(r *rand.Rand, xs []string) []string {
	out := slices.Clone(xs)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// randSchema returns two to four relations of one to three attributes,
// in random order. Keyed, every relation also holds the attribute k.
func randSchema(r *rand.Rand, keyed bool) *relstore.Schema {
	s := relstore.NewSchema()
	for i := range 2 + r.Intn(3) {
		attrs := shuffled(r, attrPool)[:1+r.Intn(3)]
		if keyed {
			attrs = attrs[:r.Intn(3)]
			attrs = slices.Insert(attrs, r.Intn(len(attrs)+1), "k")
		}
		s.MustAddRelation(fmt.Sprintf("r%d", i), attrs...)
	}
	return s
}

// randPipeline draws up to four steps from s on: decompositions of a
// relation into two or three covering parts with attributes in random
// order, and compositions of two or three relations in random order, so
// some meet a Cartesian product partway through their join. Steps the
// pipeline refuses (parts that are not join-connected, say) are skipped.
// Keyed, every part keeps k.
func randPipeline(r *rand.Rand, s *relstore.Schema, keyed bool) *Pipeline {
	p := NewPipeline(s)
	for step := range 1 + r.Intn(4) {
		rels := p.To().Relations()
		if r.Intn(2) == 0 {
			rel := rels[r.Intn(len(rels))]
			if rel.Arity() < 2 {
				continue
			}
			parts := make([]Part, 2+r.Intn(2))
			for i := range parts {
				parts[i] = Part{Name: fmt.Sprintf("d%d_%d", step, i), Attrs: shuffled(r, rel.Attrs)[:1+r.Intn(rel.Arity())]}
			}
			for _, a := range rel.Attrs {
				for i := range parts {
					if keyed && a == "k" && !slices.Contains(parts[i].Attrs, a) {
						parts[i].Attrs = append(parts[i].Attrs, a)
					}
				}
				if !slices.ContainsFunc(parts, func(pt Part) bool { return slices.Contains(pt.Attrs, a) }) {
					i := r.Intn(len(parts))
					parts[i].Attrs = append(parts[i].Attrs, a)
				}
			}
			_ = p.Decompose(rel.Name, parts...)
			continue
		}
		if len(rels) < 2 {
			continue
		}
		var names []string
		for _, rel := range rels {
			names = append(names, rel.Name)
		}
		names = shuffled(r, names)[:2+r.Intn(min(2, len(rels)-1))]
		_ = p.Compose(fmt.Sprintf("c%d", step), names...)
	}
	return p
}

// randInstance fills s with values of a pool every column shares. In mode
// 0 each relation gets random rows, so dangling tuples abound. In modes 1
// and 2 the relations are the projections of one random universal
// relation over every attribute, so they are consistent, and mode 2 adds
// a stray row or two that dangle. k holds a value per universal row.
func randInstance(r *rand.Rand, s *relstore.Schema, mode int) *relstore.Instance {
	inst := relstore.NewInstance(s)
	vals := []string{"v0", "v1", "v2", "v3"}
	randRow := func(rel *relstore.Relation) []string {
		tp := make([]string, rel.Arity())
		for i := range tp {
			tp[i] = vals[r.Intn(len(vals))]
		}
		return tp
	}
	rels := s.Relations()
	if mode == 0 {
		for _, rel := range rels {
			for n := r.Intn(7); n > 0; n-- {
				inst.MustInsert(rel.Name, randRow(rel)...)
			}
		}
		return inst
	}
	for e := range 1 + r.Intn(6) {
		u := map[string]string{"k": fmt.Sprint("k", e)}
		for _, a := range attrPool {
			u[a] = vals[r.Intn(len(vals))]
		}
		for _, rel := range rels {
			tp := make([]string, rel.Arity())
			for i, a := range rel.Attrs {
				tp[i] = u[a]
			}
			inst.MustInsert(rel.Name, tp...)
		}
	}
	for n := r.Intn(3) * (mode - 1); n > 0; n-- {
		rel := rels[r.Intn(len(rels))]
		inst.MustInsert(rel.Name, randRow(rel)...)
	}
	return inst
}

// TestQuickApplyMatchesStringReference: τ in the store's id space gives,
// step for step, what the string-tuple reference gives (the same error,
// or the same rows in the same order with the same symbol-table order)
// through Apply and ApplyLossy. The inputs are random schemas, random
// pipelines of compositions and decompositions, and random instances
// with shared values and dangling tuples. On keyed instances every
// relation and decomposition part holds the key of one universal
// relation, so every step is bijective: τ⁻¹ through Inverse, under the
// same parity check, must give the input back.
func TestQuickApplyMatchesStringReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	outcomes := map[applyOutcome]int{}
	roundTrips := 0
	for trial := range 900 {
		keyed := trial%3 == 0
		s := randSchema(r, keyed)
		p := randPipeline(r, s, keyed)
		mode := 1
		if !keyed {
			mode = r.Intn(3)
		}
		inst := randInstance(r, s, mode)
		outcome, image := checkApply(t, trial, p, inst)
		outcomes[outcome]++
		if !keyed {
			continue
		}
		if image == nil {
			t.Fatalf("trial %d: Apply refused a keyed instance", trial)
		}
		if _, back := checkApply(t, trial, p.Inverse(), image); back == nil || !back.Equal(inst) {
			t.Fatalf("trial %d: τ⁻¹(τ(I)) is not I", trial)
		}
		roundTrips += p.Steps()
	}
	t.Logf("outcomes (applied, lost tuples, Cartesian): %v; %d steps round-tripped", outcomes, roundTrips)
	if outcomes[applied] < 200 || outcomes[lostTuples] < 50 || outcomes[cartesian] < 5 || roundTrips < 200 {
		t.Errorf("one-sided property: outcomes %v, %d steps round-tripped", outcomes, roundTrips)
	}
}
