package subsume

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/logic"
	"repro/internal/obs"
)

// The compile-once/match-many engine, the substitute for Resumer2's clause
// compilation. Names map to int32 ids through a Space, a read-only table
// that targets and sources share. A target clause is skolemized (its
// variables become reserved constants) and compiled into a space once: its
// head and its body literals, grouped by (predicate, arity), sit in one
// int32 arena, each literal an offset into its group's row-major data, so
// a target is two allocations, a header of offsets and the arena. A
// group's data is either a block of the arena or, for a saturation built
// from a store's rows, the rows of a relation the space binds: such a
// target names its rows instead of copying them. A source clause is
// prepared against the same space once: its variables become dense slots,
// its constants space ids, and its occurrence lists and the components its
// head-bound variables leave are computed up front; the source of a
// sub-clause, the body literals of a keep mask, is derived from those ids
// instead of prepared from names. A probe then matches one prepared source
// against one compiled target on pooled scratch — a slot-indexed
// substitution with a trail and one live candidate domain per source
// literal, drawn from the target's group of its predicate and arity — and
// allocates nothing. The one-shot entry points compile into a private
// space holding exactly the target's names and prepare-then-probe in one
// call.

// Space is a read-only id space shared by compiled targets and prepared
// sources: the first base.Len() ids are the base table's (typically an
// instance's frozen constants), the next ones the extra names the base
// lacks. Both are fixed at construction, and the relations BindRows binds
// are bound before the space is shared, so a Space is safe for concurrent
// use as long as nobody interns into base.
type Space struct {
	base    *logic.Symbols // nil: no base ids
	baseLen int32
	extra   map[string]int32
	names   []string // extra names, id baseLen+k
	bound   []boundRel
}

// boundRel is a relation bound to a space: its predicate id, its arity and
// its rows, row-major, every value an id of the space.
type boundRel struct {
	pred, arity int32
	rows        []int32
}

// NewSpace builds a space over base (nil allowed) plus every extra name
// the base lacks.
func NewSpace(base *logic.Symbols, extra ...string) *Space {
	s := &Space{base: base, extra: make(map[string]int32, len(extra))}
	if base != nil {
		s.baseLen = int32(base.Len())
	}
	for _, name := range extra {
		s.add(name)
	}
	return s
}

// spaceOf is the private space of a one-shot target: its predicate and
// constant names, skolemized variables included.
func spaceOf(d *logic.Clause) *Space {
	s := NewSpace(nil)
	add := func(a logic.Atom) {
		s.add(a.Pred)
		for _, t := range a.Args {
			s.add(targetName(t))
		}
	}
	add(d.Head)
	for _, a := range d.Body {
		add(a)
	}
	return s
}

func (s *Space) add(name string) {
	if _, ok := s.Lookup(name); !ok {
		s.extra[name] = s.len()
		s.names = append(s.names, name)
	}
}

// Lookup returns the id of the name, or false when the space lacks it.
func (s *Space) Lookup(name string) (int32, bool) {
	if s.base != nil {
		if id, ok := s.base.Lookup(name); ok && id < s.baseLen {
			return id, true
		}
	}
	id, ok := s.extra[name]
	return id, ok
}

// len is the number of ids in the space.
func (s *Space) len() int32 { return s.baseLen + int32(len(s.names)) }

// inside reports whether every id is an id of the space.
func (s *Space) inside(ids ...int32) bool {
	for _, id := range ids {
		if uint32(id) >= uint32(s.len()) {
			return false
		}
	}
	return true
}

// BaseLen returns how many ids the space shares with syms: an id of syms
// below it is also the space's id for the same name. It is 0 unless syms
// is the space's base table.
func (s *Space) BaseLen(syms *logic.Symbols) int32 {
	if syms == nil || syms != s.base {
		return 0
	}
	return s.baseLen
}

// BindRows binds the predicate to a relation's rows, row-major and of the
// given arity, for CompileRows to name instead of copying. Every value
// must be an id of the space, and the rows must stay as they are while a
// target compiled from them lives: a frozen store's committed rows do.
// Call it before the space is shared, once per predicate. It binds nothing
// and reports false when the predicate is not an id of the space or bound
// already, the arity is below 1, or the rows' length is not a multiple of
// the arity or does not fit an int32 offset.
func (s *Space) BindRows(pred int32, arity int, rows []int32) bool {
	if !s.inside(pred) || s.binding(pred) >= 0 || arity < 1 || len(rows)%arity != 0 || len(rows) > math.MaxInt32 {
		return false
	}
	s.bound = append(s.bound, boundRel{pred: pred, arity: int32(arity), rows: rows})
	return true
}

// binding returns the index of the predicate's bound rows, or -1.
func (s *Space) binding(pred int32) int32 {
	for b := range s.bound {
		if s.bound[b].pred == pred {
			return int32(b)
		}
	}
	return -1
}

// targetName is the name a target term compiles under: constants keep
// theirs, variables become skolem constants.
func targetName(t logic.Term) string {
	if t.IsVar {
		return skolemPrefix + t.Name
	}
	return t.Name
}

// predKey is the key a body literal is grouped under: its predicate id and
// its arity.
type predKey struct{ pred, arity int32 }

// Compiled is a target clause compiled into a Space. It is immutable after
// construction and safe for concurrent probes. Its body literals are
// grouped by (predicate, arity), the groups in first-seen order and each
// group's literals in body order, and a literal is an int32 offset into
// its group's row-major data: its arguments are data[off : off+arity]. One
// arena holds, back to back:
//   - the head's arguments;
//   - four ints per group (the g* constants): its predicate, its arity, the
//     end of its literals in the literal table, and where its data lies:
//     an arena offset, or ^b for the space's bound relation b;
//   - the literal table, each group's literals' offsets in turn;
//   - the data the target owns, group after group, if any.
//
// A target compiled from store rows (CompileRows) owns no data: its groups
// point at the bound relations. One compiled from names (Compile,
// Space.Compile) owns all of it.
type Compiled struct {
	space    *Space
	arena    []int32
	headPred int32
	// Where the group table, the literal table and the owned data start;
	// the head's arguments start at 0.
	groupsAt, litsAt, dataAt int32
}

// A group's fields in the group table.
const (
	gPred = iota
	gArity
	gEnd
	gData
	groupInts
)

func (cd *Compiled) headArgs() []int32 { return cd.arena[:cd.groupsAt] }

// numGroups returns how many (predicate, arity) groups the body holds.
func (cd *Compiled) numGroups() int { return int(cd.litsAt-cd.groupsAt) / groupInts }

// field returns group g's field f.
func (cd *Compiled) field(g, f int) int32 { return cd.arena[int(cd.groupsAt)+groupInts*g+f] }

// span returns where group g's literals lie in the literal table.
func (cd *Compiled) span(g int) (lo, hi int32) {
	if g > 0 {
		lo = cd.field(g-1, gEnd)
	}
	return lo, cd.field(g, gEnd)
}

// group returns group g's key, its literals' offsets and its data.
func (cd *Compiled) group(g int) (k predKey, lits, data []int32) {
	lo, hi := cd.span(g)
	k = predKey{cd.field(g, gPred), cd.field(g, gArity)}
	return k, cd.arena[cd.litsAt+lo : cd.litsAt+hi], cd.data(g)
}

// data returns group g's row-major data: a block of the arena or the rows
// of a bound relation.
func (cd *Compiled) data(g int) []int32 {
	at := cd.field(g, gData)
	if at < 0 {
		return cd.space.bound[^at].rows
	}
	return cd.arena[at:]
}

// Compile builds the match-many form of a clause in a private space
// holding exactly its names.
func Compile(d *logic.Clause) *Compiled {
	return spaceOf(d).compile(d, nil)
}

// Compile compiles a clause into the space. A clause holding a name the
// space lacks — a skolemized variable, a constant only it holds —
// compiles into a private space of its own instead, and every probe of it
// prepares the source afresh against that space: such targets answer
// exactly, just without the shared space's reuse.
func (s *Space) Compile(d *logic.Clause) *Compiled {
	if cd := s.compile(d, nil); cd != nil {
		return cd
	}
	return Compile(d)
}

// grouping is the grouping of one compilation's body literals: their
// distinct keys in first-seen order and each group's literal count, then,
// once newCompiled has laid the groups out, the next free slot of each in
// the literal table. A compilation keeps it on its stack: targets have few
// groups, so a scan beats hashing.
type grouping struct {
	keys []predKey
	n    []int32
	last int // the group found last, tried first: literals come in runs
}

// index returns the group of key k, or -1.
func (gs *grouping) index(k predKey) int {
	if gs.last < len(gs.keys) && gs.keys[gs.last] == k {
		return gs.last
	}
	g := slices.Index(gs.keys, k)
	if g >= 0 {
		gs.last = g
	}
	return g
}

// count returns the grouping with one more literal of key k. It takes and
// returns the grouping by value, so that the arrays its slices start in
// stay on the caller's stack.
func (gs grouping) count(k predKey) grouping {
	g := gs.index(k)
	if g < 0 {
		gs.keys, gs.n = append(gs.keys, k), append(gs.n, 0)
		g = len(gs.keys) - 1
		gs.last = g
	}
	gs.n[g]++
	return gs
}

// compile interns the target into the space and lays it out, or returns
// nil when the space lacks one of its names. order, when not nil, receives
// each body literal's index in the literal table.
func (s *Space) compile(d *logic.Clause, order []int32) *Compiled {
	missing := false
	id := func(name string) int32 {
		id, ok := s.Lookup(name)
		missing = missing || !ok
		return id
	}
	// Both passes key every literal: the predicate's id is looked up
	// again only when it differs from the literal before's.
	pred, predID := "", int32(-1)
	key := func(a logic.Atom) predKey {
		if predID < 0 || a.Pred != pred {
			pred, predID = a.Pred, id(a.Pred)
		}
		return predKey{predID, int32(len(a.Args))}
	}
	var keys [32]predKey
	var counts [32]int32
	gs := grouping{keys: keys[:0], n: counts[:0]}
	e := 0
	for _, a := range d.Body {
		gs = gs.count(key(a))
		e += len(a.Args)
	}
	if missing {
		return nil
	}
	cd := s.newCompiled(len(d.Head.Args), &gs, e, false)
	cd.headPred = id(d.Head.Pred)
	for i, t := range d.Head.Args {
		cd.arena[i] = id(targetName(t))
	}
	for i, a := range d.Body {
		g, pos, j := cd.place(&gs, key(a))
		off := j * int32(len(a.Args))
		cd.arena[cd.litsAt+pos] = off
		args := cd.arena[cd.field(g, gData)+off:]
		for p, t := range a.Args {
			args[p] = id(targetName(t))
		}
		if order != nil {
			order[i] = pos
		}
	}
	if missing {
		return nil
	}
	return cd
}

// CompileRows compiles a ground clause whose body literals are rows of
// relations bound to the space: body literal i is row rows[i] of the
// relation BindRows bound to preds[i]. The target names the rows instead
// of copying them, so its arena holds the head's arguments, four ints per
// group and one per literal, and it equals the target Compile builds from
// the clause written out in names. It returns nil when a predicate is not
// bound, a row lies outside its relation's bound rows or a head id outside
// the space.
func (s *Space) CompileRows(headPred int32, headArgs, preds, rows []int32) *Compiled {
	if len(preds) != len(rows) {
		panic("subsume: CompileRows: one row per literal")
	}
	if !s.inside(headPred) || !s.inside(headArgs...) {
		return nil
	}
	b := int32(-1) // the binding of the literal before
	key := func(pred int32) predKey {
		if b < 0 || s.bound[b].pred != pred {
			if b = s.binding(pred); b < 0 {
				return predKey{pred, -1}
			}
		}
		return predKey{pred, s.bound[b].arity}
	}
	var keys [32]predKey
	var counts [32]int32
	gs := grouping{keys: keys[:0], n: counts[:0]}
	for i, p := range preds {
		k := key(p)
		if k.arity < 0 || uint32(rows[i]) >= uint32(len(s.bound[b].rows)/int(k.arity)) {
			return nil
		}
		gs = gs.count(k)
	}
	cd := s.newCompiled(len(headArgs), &gs, 0, true)
	cd.headPred = headPred
	copy(cd.arena, headArgs)
	for i, p := range preds {
		k := key(p)
		_, pos, _ := cd.place(&gs, k)
		cd.arena[cd.litsAt+pos] = rows[i] * k.arity
	}
	return cd
}

// newCompiled carves a target with a head of h arguments and the groups gs
// counted out of one int32 arena, and fills in the group table: the data
// of a bound group is its relation's rows, and the target owns e data ints
// otherwise, each group's block after the one before. It turns gs's counts
// into each group's next free literal slot, for place.
func (s *Space) newCompiled(h int, gs *grouping, e int, bound bool) *Compiled {
	n := int32(0)
	for _, c := range gs.n {
		n += c
	}
	g := len(gs.keys)
	cd := &Compiled{space: s, arena: make([]int32, h+groupInts*g+int(n)+e)}
	cd.groupsAt = int32(h)
	cd.litsAt = cd.groupsAt + int32(groupInts*g)
	cd.dataAt = cd.litsAt + n
	end, at := int32(0), cd.dataAt
	for k, key := range gs.keys {
		f := cd.arena[int(cd.groupsAt)+groupInts*k:]
		f[gPred], f[gArity] = key.pred, key.arity
		gs.n[k], end = end, end+gs.n[k]
		f[gEnd], f[gData] = end, at
		if bound {
			f[gData] = ^s.binding(key.pred)
		} else {
			at += (end - gs.n[k]) * key.arity
		}
	}
	return cd
}

// place files the next body literal of key k in its group: it returns the
// group, the literal's index in the literal table and its index within
// the group.
func (cd *Compiled) place(gs *grouping, k predKey) (g int, pos, j int32) {
	g = gs.index(k)
	pos = gs.n[g]
	gs.n[g]++
	lo, _ := cd.span(g)
	return g, pos, pos - lo
}

// Equal reports whether two targets are the same clause compiled into the
// same space: the same head, and group by group the same predicate, arity
// and literals, in the same order with the same argument ids, wherever
// each group's data lies. How literals of different groups interleave in
// the clause is not compared: the layout does not keep it, and no probe
// can observe it.
func (cd *Compiled) Equal(o *Compiled) bool {
	if cd.space != o.space || cd.headPred != o.headPred || !slices.Equal(cd.headArgs(), o.headArgs()) || cd.numGroups() != o.numGroups() {
		return false
	}
	for g := range cd.numGroups() {
		k, lits, data := cd.group(g)
		ok, olits, odata := o.group(g)
		if k != ok || len(lits) != len(olits) {
			return false
		}
		for j, off := range lits {
			if !slices.Equal(data[off:off+k.arity], odata[olits[j]:olits[j]+k.arity]) {
				return false
			}
		}
	}
	return true
}

// Len returns the number of target body literals.
func (cd *Compiled) Len() int { return int(cd.dataAt - cd.litsAt) }

// Source is a source clause prepared against a Space: probes of any
// target compiled into that space reuse it. It is immutable after
// preparation and safe for concurrent probes.
type Source struct {
	space *Space
	// The clause as given, for preparing it afresh against a target that
	// compiled into a private space.
	clause *logic.Clause

	head  srcLit
	lits  []srcLit
	argv  []logic.ITerm // head arguments first, then the body's
	preds []predKey     // distinct body (predicate, arity) keys, first-seen order
	// occ[occOff[s]:occOff[s+1]] are the body occurrences of slot s.
	occOff []int32
	occ    []occEntry
	// comps[compOff[k]:compOff[k+1]] are the body literals of component k:
	// literals connected by variables the head leaves unbound, ascending.
	compOff   []int32
	comps     []int32
	slotNames []string
}

// srcLit is one prepared source literal: its predicate (for a body
// literal an index into Source.preds, its (predicate, arity) key; for the
// head the id itself) and its
// arguments argv[off:off+n]. unknown marks a literal holding a constant
// the space lacks (logic.UnknownSym), which no target literal can host.
// The arity is an int16 so that the mark keeps the literal at 12 bytes.
type srcLit struct {
	pred    int32
	off     int32
	n       int16
	unknown bool
}

// occEntry is one occurrence of a variable slot in the source body.
type occEntry struct {
	lit int32
	pos int32
}

// Prepare prepares a clause for probing targets compiled into the space.
// Names the space lacks prepare as logic.UnknownSym, which no target
// compiled into the space holds.
func (s *Space) Prepare(c *logic.Clause) *Source {
	src := &Source{space: s, clause: c, lits: make([]srcLit, len(c.Body))}
	lookup := func(name string) int32 {
		if id, ok := s.Lookup(name); ok {
			return id
		}
		return logic.UnknownSym
	}
	n := len(c.Head.Args)
	for _, a := range c.Body {
		n += len(a.Args)
	}
	src.argv = make([]logic.ITerm, 0, n)
	// Variables get dense slots in first-use order through a small
	// open-addressed table over FNV-1a name hashes: sources are prepared
	// once per candidate per round, and a map per source would be most of
	// the garbage a preparation makes.
	table := make([]int32, tableSize(n)) // slot+1 per entry; 0 = empty
	slotOf := func(name string) int32 {
		mask := uint32(len(table) - 1)
		for i := fnv32(name) & mask; ; i = (i + 1) & mask {
			slot := table[i] - 1
			if slot < 0 {
				src.slotNames = append(src.slotNames, name)
				table[i] = int32(len(src.slotNames))
				return table[i] - 1
			}
			if src.slotNames[slot] == name {
				return slot
			}
		}
	}
	intern := func(a logic.Atom) srcLit {
		if len(a.Args) > math.MaxInt16 {
			panic(fmt.Sprintf("subsume: atom %s/%d has more arguments than a source literal holds", a.Pred, len(a.Args)))
		}
		lit := srcLit{off: int32(len(src.argv)), n: int16(len(a.Args))}
		for _, t := range a.Args {
			if t.IsVar {
				src.argv = append(src.argv, logic.VarITerm(slotOf(t.Name)))
			} else {
				id := lookup(t.Name)
				lit.unknown = lit.unknown || id == logic.UnknownSym
				src.argv = append(src.argv, logic.ConstITerm(id))
			}
		}
		return lit
	}
	src.head = intern(c.Head)
	src.head.pred = lookup(c.Head.Pred)
	headSlots := len(src.slotNames)
	for i, a := range c.Body {
		src.lits[i] = intern(a)
		key := predKey{lookup(a.Pred), int32(len(a.Args))}
		k := slices.Index(src.preds, key)
		if k < 0 {
			k = len(src.preds)
			src.preds = append(src.preds, key)
		}
		src.lits[i].pred = int32(k)
	}
	src.prepareOcc()
	src.prepareComponents(headSlots, nil)
	return src
}

// Sub is the scratch of sub-clause probes (Compiled.ProbeSub): the source
// a probe derives and the derivation's temporary arrays, all reused from
// probe to probe. The zero value is ready; a Sub serves one goroutine at a
// time.
type Sub struct {
	src   Source
	renum []int32 // old slot → new slot + 1
	temp  []int32 // prepareComponents' union-find arrays
}

// derive writes into sc the source of the sub-clause of src's clause that
// keeps the body literals keep marks, in order, from src's ids instead of
// its names: the kept literals' arguments are copied, the variable slots
// left are renumbered in first-use order, and the predicates, occurrence
// lists and components are recomputed, so the result is what Prepare of
// the sub-clause builds, with no clause of names: it serves targets
// compiled into src's space only. src must come from Prepare.
func (src *Source) derive(sc *Sub, keep []bool) *Source {
	if len(keep) != len(src.lits) {
		panic("subsume: keep mask of another length than the source's body")
	}
	out := &sc.src
	out.space, out.clause = src.space, nil
	// The first derivation sizes every array for the whole source.
	if cap(out.lits) < len(src.lits) {
		out.lits = make([]srcLit, 0, len(src.lits))
		out.argv = make([]logic.ITerm, 0, len(src.argv))
		out.preds = make([]predKey, 0, len(src.preds))
		out.slotNames = make([]string, 0, len(src.slotNames))
	}
	out.lits, out.argv, out.preds, out.slotNames = out.lits[:0], out.argv[:0], out.preds[:0], out.slotNames[:0]
	sc.renum = resize(sc.renum, len(src.slotNames))
	renum := sc.renum
	clear(renum)
	copyLit := func(l srcLit) srcLit {
		nl := srcLit{pred: l.pred, off: int32(len(out.argv)), n: l.n, unknown: l.unknown}
		for _, t := range src.argv[l.off : l.off+int32(l.n)] {
			if t.IsVar() {
				s := t.Slot()
				if renum[s] == 0 {
					out.slotNames = append(out.slotNames, src.slotNames[s])
					renum[s] = int32(len(out.slotNames))
				}
				t = logic.VarITerm(renum[s] - 1)
			}
			out.argv = append(out.argv, t)
		}
		return nl
	}
	out.head = copyLit(src.head)
	headSlots := len(out.slotNames)
	for k, l := range src.lits {
		if !keep[k] {
			continue
		}
		nl := copyLit(l)
		key := src.preds[l.pred]
		p := slices.Index(out.preds, key)
		if p < 0 {
			p = len(out.preds)
			out.preds = append(out.preds, key)
		}
		nl.pred = int32(p)
		out.lits = append(out.lits, nl)
	}
	out.prepareOcc()
	sc.temp = out.prepareComponents(headSlots, sc.temp)
	return out
}

// tableSize is the power-of-two size of an open-addressed table holding
// at most n keys at no more than half load.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

// fnv32 is FNV-1a over the string's bytes.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// bodyArgs returns body literal i's prepared arguments.
func (src *Source) bodyArgs(i int32) []logic.ITerm {
	l := src.lits[i]
	return src.argv[l.off : l.off+int32(l.n)]
}

// prepareOcc builds the per-slot occurrence lists of the body, in literal
// then position order: count, prefix-sum, then fill walking the body
// backwards so each list comes out ascending. The arrays reuse what src
// holds already.
func (src *Source) prepareOcc() {
	src.occOff = resize(src.occOff, len(src.slotNames)+1)
	clear(src.occOff)
	for i := range src.lits {
		for _, t := range src.bodyArgs(int32(i)) {
			if t.IsVar() {
				src.occOff[t.Slot()+1]++
			}
		}
	}
	for s := 1; s < len(src.occOff); s++ {
		src.occOff[s] += src.occOff[s-1]
	}
	if n := int(src.occOff[len(src.occOff)-1]); cap(src.occ) < n {
		src.occ = make([]occEntry, n)
	} else {
		src.occ = src.occ[:n]
	}
	for i := len(src.lits) - 1; i >= 0; i-- {
		args := src.bodyArgs(int32(i))
		for p := len(args) - 1; p >= 0; p-- {
			if t := args[p]; t.IsVar() {
				src.occOff[t.Slot()+1]--
				src.occ[src.occOff[t.Slot()+1]] = occEntry{lit: int32(i), pos: int32(p)}
			}
		}
	}
	copy(src.occOff, src.occOff[1:])
	src.occOff[len(src.occOff)-1] = int32(len(src.occ))
}

// prepareComponents partitions the body literals into groups connected by
// variables the head does not bind (slots below headSlots are head
// variables, all bound once the head matches). Components are independent
// subproblems: they share no unbound variable, so one exponential search
// becomes several much smaller ones. Groups come in order of their first
// literal, each ascending. temp is scratch, reused when large enough; the
// scratch is returned, and the component arrays reuse what src holds.
func (src *Source) prepareComponents(headSlots int, temp []int32) []int32 {
	n := len(src.lits)
	// parent is the union-find forest over literals, owner the first
	// literal holding each slot, rank each root's component number + 1.
	temp = resize(temp, 2*n+len(src.slotNames))
	clear(temp)
	parent, rank, owner := temp[:n], temp[n:2*n], temp[2*n:]
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range src.lits {
		for _, t := range src.bodyArgs(int32(i)) {
			if !t.IsVar() || int(t.Slot()) < headSlots {
				continue // bound variables do not connect literals
			}
			s := t.Slot()
			if o := owner[s] - 1; o >= 0 {
				parent[find(int32(i))] = find(o)
			} else {
				owner[s] = int32(i) + 1
			}
		}
	}
	if cap(src.compOff) < n+1 {
		src.compOff = make([]int32, 0, n+1)
	}
	src.compOff = append(src.compOff[:0], 0)
	for i := 0; i < n; i++ {
		r := find(int32(i))
		if rank[r] == 0 {
			src.compOff = append(src.compOff, 0)
			rank[r] = int32(len(src.compOff) - 1)
		}
		src.compOff[rank[r]]++
	}
	for k := 1; k < len(src.compOff); k++ {
		src.compOff[k] += src.compOff[k-1]
	}
	src.comps = resize(src.comps, n)
	for i := n - 1; i >= 0; i-- {
		k := rank[find(int32(i))]
		src.compOff[k]--
		src.comps[src.compOff[k]] = int32(i)
	}
	copy(src.compOff, src.compOff[1:])
	src.compOff[len(src.compOff)-1] = int32(n)
	return temp
}

// Subsumes reports whether clause c θ-subsumes the compiled target: some
// substitution maps c's head to the target head and every body literal of
// c to a target body literal.
func (cd *Compiled) Subsumes(c *logic.Clause) bool {
	return cd.SubsumesR(nil, c)
}

// SubsumesR is Subsumes reporting engine calls, backtracking nodes and
// budget exhaustions into the run (nil observes nothing).
func (cd *Compiled) SubsumesR(run *obs.Run, c *logic.Clause) bool {
	return cd.Probe(run, cd.space.Prepare(c))
}

// ProbeSub is Probe of the sub-clause of src's clause that keeps the body
// literals keep marks, in order, without preparing it: its source is
// derived from src's ids into sc, and the probe answers, searches and
// counts exactly as Probe of the sub-clause prepared. keep has one entry
// per body literal of src, which must come from Prepare. A target that
// fell back to a private space gets the sub-clause prepared there.
func (cd *Compiled) ProbeSub(run *obs.Run, src *Source, keep []bool, sc *Sub) bool {
	if src.space != cd.space {
		return cd.Probe(run, cd.space.Prepare(src.clause.Keep(keep)))
	}
	return cd.Probe(run, src.derive(sc, keep))
}

// Probe reports whether the prepared source θ-subsumes the target,
// reporting engine calls, backtracking nodes and budget exhaustions into
// the run (nil observes nothing). The source must be prepared against the
// space the target was compiled into (or the target must have fallen back
// to a private space). A steady-state probe allocates nothing.
func (cd *Compiled) Probe(run *obs.Run, src *Source) bool {
	return cd.probe(run, src, nil)
}

// probe is Probe of the target whose body keeps only the literals keep
// marks, by index in the literal table (nil keeps them all): the
// target-side twin of ProbeSub's mask. Every domain holds the kept
// literals it would hold in the shorter target, in the same order, so the
// probe answers and counts as a probe of the shorter target compiled.
func (cd *Compiled) probe(run *obs.Run, src *Source, keep []bool) bool {
	m := cd.matcher(src, keep, run)
	ok := m.run()
	m.report(run)
	m.release()
	return ok
}

// matcher is the search state of one probe, pooled: a slot-indexed
// substitution with a trail, and one live candidate domain per source
// literal, narrowed on bind and restored from the domain trail on
// backtrack.
type matcher struct {
	cd        *Compiled
	src       *Source
	keep      []bool // the target's kept literals, by literal-table index; nil: all
	subst     logic.Subst
	groups    []groupView // per source key: its target group
	domBuf    []int32     // every literal's domain, swap-partitioned in place
	domStart  []int32     // per literal: start of its domain in domBuf
	live      []int32     // per literal: length of the live domain prefix
	domTrail  []domSave
	matched   []bool
	open      []int32
	nodes     int
	exhausted bool
	// obsRun feeds the stall watchdog from inside long probes; nil (an
	// unobserved run) costs one pointer test per batch.
	obsRun *obs.Run
}

// groupView is the target group of one source (predicate, arity) key,
// resolved once per probe: its literals' offsets into data, its row-major
// data, and where its literals start in the literal table. A key the
// target lacks has an empty view.
type groupView struct {
	lits, data []int32
	at         int32
}

// domSave is one domain-narrowing trail entry; undoing restores the live
// length, which resurrects exactly the candidates swapped past it.
type domSave struct {
	lit     int32
	oldLive int32
}

var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// matcher takes a cleared matcher for probing src against the target from
// the pool. A target that fell back to a private space gets the source
// prepared afresh against that space.
func (cd *Compiled) matcher(src *Source, keep []bool, run *obs.Run) *matcher {
	if src.space != cd.space {
		src = cd.space.Prepare(src.clause)
	}
	m := matcherPool.Get().(*matcher)
	m.cd, m.src, m.keep, m.obsRun = cd, src, keep, run
	m.nodes, m.exhausted = matchBudget, false
	m.domBuf, m.domTrail = m.domBuf[:0], m.domTrail[:0]
	return m
}

// release returns the matcher to the pool without the references it held.
func (m *matcher) release() {
	m.cd, m.src, m.keep, m.obsRun = nil, nil, nil, nil
	clear(m.groups)
	matcherPool.Put(m)
}

// report flushes the engine-call, node and budget-exhaustion counts of one
// finished probe into the run.
func (m *matcher) report(run *obs.Run) {
	run.Inc(obs.CSubsumptionCalls)
	used := matchBudget - m.nodes
	if m.exhausted {
		used = matchBudget // the countdown went negative by one
		run.Inc(obs.CSubsumptionBudgetExhausted)
	}
	run.Add(obs.CSubsumptionNodes, int64(used))
}

// run resolves each source key to its target group, matches the heads,
// then searches each component with forward pruning over incremental
// domains. A source predicate with no kept target literal, of any arity,
// fails the probe before any search; one the target holds at other
// arities only gets empty domains.
func (m *matcher) run() bool {
	src := m.src
	m.groups = m.groups[:0]
	for _, k := range src.preds {
		v, hosted := m.resolve(k)
		if !hosted {
			return false
		}
		m.groups = append(m.groups, v)
	}
	m.subst.Reset(len(src.slotNames))
	if !m.matchHead() {
		return false
	}
	n := len(src.lits)
	if n == 0 {
		return true
	}
	m.domStart = resize(m.domStart, n)
	m.live = resize(m.live, n)
	if cap(m.matched) < n {
		m.matched = make([]bool, n)
	}
	m.matched = m.matched[:n]
	clear(m.matched)
	for k := 0; k+1 < len(src.compOff); k++ {
		if !m.matchComponent(src.comps[src.compOff[k]:src.compOff[k+1]]) {
			return false
		}
	}
	return true
}

// resolve finds the target group of source key k, and reports whether the
// target keeps some literal of k's predicate at any arity. Targets have
// few groups, so a scan beats hashing.
func (m *matcher) resolve(k predKey) (v groupView, hosted bool) {
	cd := m.cd
	for g := range cd.numGroups() {
		if cd.field(g, gPred) != k.pred {
			continue
		}
		lo, hi := cd.span(g)
		hosted = hosted || m.keep == nil || slices.Contains(m.keep[lo:hi], true)
		if cd.field(g, gArity) == k.arity {
			_, lits, data := cd.group(g)
			v = groupView{lits: lits, data: data, at: lo}
		}
	}
	return v, hosted
}

func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// matchHead extends the substitution so the source head maps onto the
// (skolemized, ground) target head.
func (m *matcher) matchHead() bool {
	cd, head := m.cd, m.src.head
	headArgs := cd.headArgs()
	if head.pred != cd.headPred || int(head.n) != len(headArgs) {
		return false
	}
	for i, t := range m.src.argv[head.off : head.off+int32(head.n)] {
		want := headArgs[i]
		if t.IsVar() {
			slot := t.Slot()
			if sym, bound := m.subst.Value(slot); bound {
				if sym != want {
					return false
				}
				continue
			}
			m.subst.Bind(slot, want)
			continue
		}
		if t.Sym() != want {
			return false
		}
	}
	return true
}

// matchComponent initializes the candidate domains of one component's
// literals and backtracks over them. Bindings of a solved component stay
// in place: later components share no unbound variable with it, so they
// are unaffected, and the union of the per-component assignments is the
// witnessing substitution.
func (m *matcher) matchComponent(comp []int32) bool {
	for _, i := range comp {
		if !m.initDomain(i) {
			return false
		}
	}
	m.open = append(m.open[:0], comp...)
	return m.search(len(comp))
}

// initDomain builds literal i's initial candidate list: the kept target
// literals of its group consistent with the literal under the current
// substitution — constants and bound variables must agree positionally,
// repeated unbound variables must meet equal target constants. A domain
// holds its candidates' data offsets. A literal holding an unknown
// constant (logic.UnknownSym) agrees with no target literal, so Prepare
// marks it and its domain is empty without a scan.
func (m *matcher) initDomain(i int32) bool {
	lit := m.src.lits[i]
	args := m.src.argv[lit.off : lit.off+int32(lit.n)]
	start := int32(len(m.domBuf))
	m.domStart[i] = start
	if lit.unknown {
		m.live[i] = 0
		return false
	}
	v := &m.groups[lit.pred]
	for j, t := range v.lits {
		if m.keep != nil && !m.keep[v.at+int32(j)] {
			continue
		}
		if m.consistent(args, v.data[t:t+int32(lit.n)]) {
			m.domBuf = append(m.domBuf, t)
		}
	}
	m.live[i] = int32(len(m.domBuf)) - start
	return m.live[i] > 0
}

// consistent reports whether the target literal with arguments tgt can
// host the source literal with arguments args, of the same arity, under
// the current substitution.
func (m *matcher) consistent(args []logic.ITerm, tgt []int32) bool {
	for p, st := range args {
		if st.IsVar() {
			if sym, bound := m.subst.Value(st.Slot()); bound {
				if tgt[p] != sym {
					return false
				}
				continue
			}
			// Unbound: repeated occurrences inside the literal must land on
			// equal target constants.
			for q := 0; q < p; q++ {
				if args[q] == st && tgt[q] != tgt[p] {
					return false
				}
			}
			continue
		}
		if tgt[p] != st.Sym() {
			return false
		}
	}
	return true
}

// dom returns literal i's domain (its live prefix is the first live[i]).
func (m *matcher) dom(i int32) []int32 { return m.domBuf[m.domStart[i]:] }

// search backtracks over the first openCount entries of m.open. At each
// node it picks the literal with the smallest live domain (domains are
// maintained incrementally, so selection is a scan, not a re-count) and
// tries its candidates; assignment narrows the neighbours' domains and
// failure restores them from the trails.
func (m *matcher) search(openCount int) bool {
	if openCount == 0 {
		return true
	}
	best, bestLive := 0, m.live[m.open[0]]
	for k := 1; k < openCount && bestLive > 1; k++ {
		if l := m.live[m.open[k]]; l < bestLive {
			best, bestLive = k, l
		}
	}
	i := m.open[best]
	m.open[best], m.open[openCount-1] = m.open[openCount-1], m.open[best]
	m.matched[i] = true
	dom, n := m.dom(i), m.live[i]
	for k := int32(0); k < n; k++ {
		m.nodes--
		if m.nodes < 0 {
			m.exhausted = true
			break
		}
		if m.nodes&4095 == 0 {
			// A pathological probe can spin here for seconds; let the stall
			// watchdog see forward progress once per node batch.
			m.obsRun.Heartbeat()
		}
		smark := m.subst.Mark()
		dmark := len(m.domTrail)
		if m.assign(i, dom[k]) && m.search(openCount-1) {
			return true
		}
		m.subst.UndoTo(smark)
		m.undoDoms(dmark)
		if m.exhausted {
			break
		}
	}
	m.matched[i] = false
	return false
}

// assign binds literal i's unbound variables to the constants of the
// target literal at offset t of its group's data and forward-propagates
// each binding into the open neighbours' domains. No consistency check is
// needed — domain maintenance guarantees every live candidate agrees with
// the current substitution — so the only failure mode is a neighbour's
// domain emptying.
func (m *matcher) assign(i, t int32) bool {
	lit := m.src.lits[i]
	tgt := m.groups[lit.pred].data[t : t+int32(lit.n)]
	for p, st := range m.src.bodyArgs(i) {
		if !st.IsVar() {
			continue
		}
		slot := st.Slot()
		if _, bound := m.subst.Value(slot); bound {
			continue
		}
		m.subst.Bind(slot, tgt[p])
		if !m.propagate(slot, tgt[p]) {
			return false
		}
	}
	return true
}

// propagate narrows the domain of every open literal in which the slot
// occurs to the candidates holding sym at that position — the
// arc-consistency-style pruning that replaces per-node candidate
// re-counting. Emptied domains fail the assignment immediately.
func (m *matcher) propagate(slot, sym int32) bool {
	for _, oc := range m.src.occ[m.src.occOff[slot]:m.src.occOff[slot+1]] {
		if m.matched[oc.lit] {
			continue
		}
		data := m.groups[m.src.lits[oc.lit].pred].data
		dom, n := m.dom(oc.lit), m.live[oc.lit]
		kept := int32(0)
		for k := int32(0); k < n; k++ {
			if data[dom[k]+oc.pos] == sym {
				dom[kept], dom[k] = dom[k], dom[kept]
				kept++
			}
		}
		if kept == n {
			continue
		}
		m.domTrail = append(m.domTrail, domSave{lit: oc.lit, oldLive: n})
		m.live[oc.lit] = kept
		if kept == 0 {
			return false
		}
	}
	return true
}

// undoDoms restores every domain narrowed since the mark.
func (m *matcher) undoDoms(mark int) {
	for k := len(m.domTrail) - 1; k >= mark; k-- {
		sv := m.domTrail[k]
		m.live[sv.lit] = sv.oldLive
	}
	m.domTrail = m.domTrail[:mark]
}
