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
// variables become reserved constants) and compiled into a space once:
// its literals, its head and its per-predicate literal lists sit in one
// int32 arena, so a target is two allocations, a 64-byte header of offsets
// and the arena. A source clause is prepared against the same space once:
// its variables become dense slots, its constants space ids, and its
// occurrence lists and the components its head-bound variables leave are
// computed up front; the source of a sub-clause, the body literals of a
// keep mask, is derived from those ids instead of prepared from names. A
// probe then matches one prepared source against one compiled target on
// pooled scratch — a slot-indexed substitution with a trail and one live
// candidate domain per source literal, drawn from the target's literals
// of its predicate — and allocates nothing. The one-shot entry points
// compile into a private space holding exactly the target's names and
// prepare-then-probe in one call.

// Space is a read-only id space shared by compiled targets and prepared
// sources: the first base.Len() ids are the base table's (typically an
// instance's frozen constants), the next ones the extra names the base
// lacks. Both are fixed at construction, so a Space is safe for concurrent
// use as long as nobody interns into base.
type Space struct {
	base    *logic.Symbols // nil: no base ids
	baseLen int32
	extra   map[string]int32
	names   []string // extra names, id baseLen+k
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

// targetName is the name a target term compiles under: constants keep
// theirs, variables become skolem constants.
func targetName(t logic.Term) string {
	if t.IsVar {
		return skolemPrefix + t.Name
	}
	return t.Name
}

// Compiled is a target clause compiled into a Space. It is immutable after
// construction and safe for concurrent probes. Its tables lie back to back
// in one arena, each from its offset to the next one's (the last to the
// arena's end), so the header holds one slice and int32 offsets:
//   - litPred: each body literal's predicate;
//   - litOff: body literal i's arguments are argv[litOff[i]:litOff[i+1]];
//   - argv, then headArgs: the body's and the head's argument ids;
//   - preds, predOff, predLits: the target literals of predicate preds[k]
//     (distinct predicates, first-seen order) are
//     predLits[predOff[k]:predOff[k+1]], ascending.
type Compiled struct {
	space    *Space
	arena    []int32
	headPred int32
	// Where litOff, argv, headArgs, preds, predOff and predLits start;
	// litPred starts at 0.
	litOffAt, argvAt, headAt, predsAt, predOffAt, predLitsAt int32
}

func (cd *Compiled) litPred() []int32  { return cd.arena[:cd.litOffAt] }
func (cd *Compiled) litOff() []int32   { return cd.arena[cd.litOffAt:cd.argvAt] }
func (cd *Compiled) argv() []int32     { return cd.arena[cd.argvAt:cd.headAt] }
func (cd *Compiled) headArgs() []int32 { return cd.arena[cd.headAt:cd.predsAt] }
func (cd *Compiled) preds() []int32    { return cd.arena[cd.predsAt:cd.predOffAt] }
func (cd *Compiled) predOff() []int32  { return cd.arena[cd.predOffAt:cd.predLitsAt] }
func (cd *Compiled) predLits() []int32 { return cd.arena[cd.predLitsAt:] }

// Compile builds the match-many form of a clause in a private space
// holding exactly its names.
func Compile(d *logic.Clause) *Compiled {
	return spaceOf(d).compile(d)
}

// Compile compiles a clause into the space. A clause holding a name the
// space lacks — a skolemized variable, a constant only it holds —
// compiles into a private space of its own instead, and every probe of it
// prepares the source afresh against that space: such targets answer
// exactly, just without the shared space's reuse.
func (s *Space) Compile(d *logic.Clause) *Compiled {
	if cd := s.compile(d); cd != nil {
		return cd
	}
	return Compile(d)
}

// compile interns the target into the space and indexes it, or returns
// nil when the space lacks one of its names.
func (s *Space) compile(d *logic.Clause) *Compiled {
	e := 0
	for _, a := range d.Body {
		e += len(a.Args)
	}
	missing := false
	id := func(name string) int32 {
		id, ok := s.Lookup(name)
		missing = missing || !ok
		return id
	}
	preds := distinct(len(d.Body), func(i int) string { return d.Body[i].Pred })
	cd := s.newCompiled(len(d.Head.Args), len(d.Body), e, preds)
	cd.headPred = id(d.Head.Pred)
	headArgs, litPred, litOff, argv := cd.headArgs(), cd.litPred(), cd.litOff(), cd.argv()
	for i, t := range d.Head.Args {
		headArgs[i] = id(targetName(t))
	}
	for i, a := range d.Body {
		litPred[i] = id(a.Pred)
		litOff[i+1] = litOff[i] + int32(len(a.Args))
		for p, t := range a.Args {
			argv[int(litOff[i])+p] = id(targetName(t))
		}
	}
	if missing {
		return nil
	}
	cd.indexPreds()
	return cd
}

// CompileGround compiles a ground clause given in the space's ids: the
// head predicate and arguments, and per body literal i its predicate
// litPred[i] and its arguments argv[litOff[i]:litOff[i+1]], with
// litOff[0] = 0. It is Compile without the names: the target equals the
// one Compile builds from the same clause written out in names. The
// arrays are copied, so the caller may reuse them, and the target's own
// arrays are all it allocates. It returns nil when an id lies outside the
// space.
func (s *Space) CompileGround(headPred int32, headArgs, litPred, litOff, argv []int32) *Compiled {
	n := uint32(s.len())
	inside := func(ids []int32) bool {
		for _, id := range ids {
			if uint32(id) >= n {
				return false
			}
		}
		return true
	}
	if len(litOff) != len(litPred)+1 || litOff[0] != 0 || litOff[len(litPred)] != int32(len(argv)) {
		panic("subsume: CompileGround: literal offsets do not delimit the arguments")
	}
	if uint32(headPred) >= n || !inside(headArgs) || !inside(litPred) || !inside(argv) {
		return nil
	}
	preds := distinct(len(litPred), func(i int) int32 { return litPred[i] })
	cd := s.newCompiled(len(headArgs), len(litPred), len(argv), preds)
	cd.headPred = headPred
	copy(cd.headArgs(), headArgs)
	copy(cd.litPred(), litPred)
	copy(cd.litOff(), litOff)
	copy(cd.argv(), argv)
	cd.indexPreds()
	return cd
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

// newCompiled carves a target of n body literals of p distinct predicates
// holding e arguments in all, with a head of h arguments, out of one int32
// arena. The caller fills in the head and the literals, then calls
// indexPreds.
func (s *Space) newCompiled(h, n, e, p int) *Compiled {
	cd := &Compiled{space: s, arena: make([]int32, n+(n+1)+e+h+p+(p+1)+n)}
	cd.litOffAt = int32(n)
	cd.argvAt = cd.litOffAt + int32(n+1)
	cd.headAt = cd.argvAt + int32(e)
	cd.predsAt = cd.headAt + int32(h)
	cd.predOffAt = cd.predsAt + int32(p)
	cd.predLitsAt = cd.predOffAt + int32(p+1)
	return cd
}

// distinct counts the distinct values among key(0), …, key(n−1).
func distinct[K comparable](n int, key func(int) K) int {
	var buf [64]K // targets have few distinct predicates
	seen := buf[:0]
	for i := range n {
		if k := key(i); !slices.Contains(seen, k) {
			seen = append(seen, k)
		}
	}
	return len(seen)
}

// indexPreds builds the per-predicate literal lists of a filled-in target:
// the distinct predicates in first-seen order, then for each one a scan of
// the body for its literals, so each list comes out ascending.
func (cd *Compiled) indexPreds() {
	litPred, preds, predOff, predLits := cd.litPred(), cd.preds(), cd.predOff(), cd.predLits()
	n := 0
	for _, p := range litPred {
		if !slices.Contains(preds[:n], p) {
			preds[n] = p
			n++
		}
	}
	j := int32(0)
	for k, p := range preds {
		for i, q := range litPred {
			if q == p {
				predLits[j] = int32(i)
				j++
			}
		}
		predOff[k+1] = j
	}
}

// Equal reports whether two targets are the same clause compiled into the
// same space: the same head, and the same body literals in the same order
// with the same argument ids.
func (cd *Compiled) Equal(o *Compiled) bool {
	return cd.space == o.space && cd.headPred == o.headPred &&
		slices.Equal(cd.headArgs(), o.headArgs()) && slices.Equal(cd.litPred(), o.litPred()) &&
		slices.Equal(cd.litOff(), o.litOff()) && slices.Equal(cd.argv(), o.argv())
}

// Len returns the number of target body literals.
func (cd *Compiled) Len() int { return int(cd.litOffAt) }

// predList returns the target literals of predicate pred, ascending.
// Targets have few distinct predicates, so a scan beats hashing.
func (cd *Compiled) predList(pred int32) []int32 {
	if k := int32(slices.Index(cd.preds(), pred)); k >= 0 {
		off := cd.arena[cd.predOffAt+k:]
		return cd.arena[cd.predLitsAt+off[0] : cd.predLitsAt+off[1]]
	}
	return nil
}

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
	preds []int32       // distinct body predicates, first-seen order
	// occ[occOff[s]:occOff[s+1]] are the body occurrences of slot s.
	occOff []int32
	occ    []occEntry
	// comps[compOff[k]:compOff[k+1]] are the body literals of component k:
	// literals connected by variables the head leaves unbound, ascending.
	compOff   []int32
	comps     []int32
	slotNames []string
}

// srcLit is one prepared source literal: its predicate (an index into
// Source.preds for body literals, the id itself for the head) and its
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
		pred := lookup(a.Pred)
		k := slices.Index(src.preds, pred)
		if k < 0 {
			k = len(src.preds)
			src.preds = append(src.preds, pred)
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
		out.preds = make([]int32, 0, len(src.preds))
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
		pred := src.preds[l.pred]
		p := slices.Index(out.preds, pred)
		if p < 0 {
			p = len(out.preds)
			out.preds = append(out.preds, pred)
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
	m := cd.matcher(src, run)
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
	subst     logic.Subst
	predCand  [][]int32 // per source predicate: the target's literals of it
	domBuf    []int32   // every literal's domain, swap-partitioned in place
	domStart  []int32   // per literal: start of its domain in domBuf
	live      []int32   // per literal: length of the live domain prefix
	domTrail  []domSave
	matched   []bool
	open      []int32
	nodes     int
	exhausted bool
	// obsRun feeds the stall watchdog from inside long probes; nil (an
	// unobserved run) costs one pointer test per batch.
	obsRun *obs.Run
	// The target's litOff and argv tables, sliced from its arena once per
	// probe for the search's hot loops.
	litOff, argv []int32
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
func (cd *Compiled) matcher(src *Source, run *obs.Run) *matcher {
	if src.space != cd.space {
		src = cd.space.Prepare(src.clause)
	}
	m := matcherPool.Get().(*matcher)
	m.cd, m.src, m.obsRun = cd, src, run
	m.litOff, m.argv = cd.litOff(), cd.argv()
	m.nodes, m.exhausted = matchBudget, false
	m.domBuf, m.domTrail = m.domBuf[:0], m.domTrail[:0]
	return m
}

// release returns the matcher to the pool without the references it held.
func (m *matcher) release() {
	m.cd, m.src, m.obsRun = nil, nil, nil
	m.litOff, m.argv = nil, nil
	clear(m.predCand)
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

// run matches the heads, then searches each component with forward
// pruning over incremental domains. A source predicate with no target
// literal fails the probe before any search.
func (m *matcher) run() bool {
	src, cd := m.src, m.cd
	m.predCand = m.predCand[:0]
	for _, p := range src.preds {
		cand := cd.predList(p)
		if len(cand) == 0 {
			return false
		}
		m.predCand = append(m.predCand, cand)
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

// initDomain builds literal i's initial candidate list: the target
// literals of its predicate consistent with the literal under the current
// substitution — constants and bound variables must agree positionally,
// repeated unbound variables must meet equal target constants. A literal
// holding an unknown constant (logic.UnknownSym) agrees with no target
// literal, so Prepare marks it and its domain is empty without a scan.
func (m *matcher) initDomain(i int32) bool {
	lit := m.src.lits[i]
	args := m.src.argv[lit.off : lit.off+int32(lit.n)]
	start := int32(len(m.domBuf))
	m.domStart[i] = start
	if lit.unknown {
		m.live[i] = 0
		return false
	}
	for _, t := range m.predCand[lit.pred] {
		if m.consistent(args, t) {
			m.domBuf = append(m.domBuf, t)
		}
	}
	m.live[i] = int32(len(m.domBuf)) - start
	return m.live[i] > 0
}

// consistent reports whether target literal t can host the source literal
// with arguments args under the current substitution.
func (m *matcher) consistent(args []logic.ITerm, t int32) bool {
	tgt := m.args(t)
	if len(tgt) != len(args) {
		return false
	}
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

// args returns target body literal t's argument ids.
func (m *matcher) args(t int32) []int32 { return m.argv[m.litOff[t]:m.litOff[t+1]] }

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

// assign binds literal i's unbound variables to target literal t's
// constants and forward-propagates each binding into the open neighbours'
// domains. No consistency check is needed — domain maintenance guarantees
// every live candidate agrees with the current substitution — so the only
// failure mode is a neighbour's domain emptying.
func (m *matcher) assign(i, t int32) bool {
	tgt := m.args(t)
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
		dom, n := m.dom(oc.lit), m.live[oc.lit]
		kept := int32(0)
		for k := int32(0); k < n; k++ {
			if m.argv[m.litOff[dom[k]]+oc.pos] == sym {
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
