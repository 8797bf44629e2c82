package logic

// Interning: predicate and constant names map to dense int32 symbol ids
// through a Symbols table, variables to dense slots through VarSlots, and
// atoms to IAtom — the integer form the compiled θ-subsumption engine
// matches on. String comparison and map-keyed substitutions disappear from
// the hot path; Extern restores the exact original names, so interning is
// lossless (round-trip property tested against the parser corpora).

// Symbols interns names (predicates and constants share one space) into
// dense int32 ids: the first distinct name becomes 0, the next 1, and so
// on. Not safe for concurrent Intern calls; after the table is fully
// built, concurrent Lookup/Name reads are safe.
type Symbols struct {
	ids   map[string]int32
	names []string
}

// NewSymbols returns an empty symbol table.
func NewSymbols() *Symbols { return &Symbols{ids: make(map[string]int32)} }

// NewSymbolsCap returns an empty symbol table with room for n names.
func NewSymbolsCap(n int) *Symbols {
	return &Symbols{ids: make(map[string]int32, n), names: make([]string, 0, n)}
}

// Intern returns the id of the name, assigning the next free id on first
// sight.
func (s *Symbols) Intern(name string) int32 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := int32(len(s.names))
	s.ids[name] = id
	s.names = append(s.names, name)
	return id
}

// Lookup returns the id of the name without interning it; ok is false for
// names never seen.
func (s *Symbols) Lookup(name string) (int32, bool) {
	id, ok := s.ids[name]
	return id, ok
}

// Name returns the name of an interned id.
func (s *Symbols) Name(id int32) string { return s.names[id] }

// Len returns the number of interned names.
func (s *Symbols) Len() int { return len(s.names) }

// VarSlots assigns dense slots to variable names in first-use order, the
// per-clause companion of the shared Symbols table.
type VarSlots struct {
	idx   map[string]int32
	names []string
}

// NewVarSlots returns an empty slot assignment.
func NewVarSlots() *VarSlots { return &VarSlots{idx: make(map[string]int32)} }

// Slot returns the slot of the variable name, assigning the next free slot
// on first sight.
func (v *VarSlots) Slot(name string) int32 {
	if i, ok := v.idx[name]; ok {
		return i
	}
	i := int32(len(v.names))
	v.idx[name] = i
	v.names = append(v.names, name)
	return i
}

// Name returns the variable name of a slot.
func (v *VarSlots) Name(slot int32) string { return v.names[slot] }

// Len returns the number of assigned slots.
func (v *VarSlots) Len() int { return len(v.names) }

// UnknownSym is the sentinel symbol id of a constant absent from a frozen
// Symbols table. It never equals a real (nonnegative) id, so a term built
// from it fails every comparison against interned data — exactly the
// semantics of a constant the target clause does not contain.
const UnknownSym int32 = -1

// ITerm is an interned term, packed into one int32: constants carry their
// symbol id in the upper bits with a 0 tag bit, variables their slot with
// a 1 tag bit. The zero value is the constant with symbol id 0.
type ITerm int32

// ConstITerm packs a constant symbol id (UnknownSym allowed).
func ConstITerm(sym int32) ITerm { return ITerm(sym << 1) }

// VarITerm packs a variable slot.
func VarITerm(slot int32) ITerm { return ITerm(slot<<1 | 1) }

// IsVar reports whether the term is a variable.
func (t ITerm) IsVar() bool { return t&1 == 1 }

// Sym returns the constant's symbol id; meaningful only when !IsVar().
func (t ITerm) Sym() int32 { return int32(t) >> 1 }

// Slot returns the variable's slot; meaningful only when IsVar().
func (t ITerm) Slot() int32 { return int32(t) >> 1 }

// IAtom is an interned atom: predicate id plus packed argument terms.
type IAtom struct {
	Pred int32
	Args []ITerm
}

// Intern converts an atom to interned form, assigning predicate and
// constant ids through syms and variable slots through vars.
func Intern(syms *Symbols, vars *VarSlots, a Atom) IAtom {
	args := make([]ITerm, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar {
			args[i] = VarITerm(vars.Slot(t.Name))
		} else {
			args[i] = ConstITerm(syms.Intern(t.Name))
		}
	}
	return IAtom{Pred: syms.Intern(a.Pred), Args: args}
}

// Extern converts an interned atom back to its string form. It is the
// exact inverse of Intern over the same tables.
func Extern(syms *Symbols, vars *VarSlots, ia IAtom) Atom {
	args := make([]Term, len(ia.Args))
	for i, t := range ia.Args {
		if t.IsVar() {
			args[i] = Var(vars.Name(t.Slot()))
		} else {
			args[i] = Const(syms.Name(t.Sym()))
		}
	}
	return Atom{Pred: syms.Name(ia.Pred), Args: args}
}

// Subst is a slot-indexed substitution over interned terms: a flat array
// from variable slot to bound constant symbol, with a trail for O(1)
// backtracking. It replaces the map[string]Term substitution on the
// matcher's hot path — binding is an array store plus a trail append,
// undoing a binding is an array store, and there is no hashing, no
// insert/delete churn and no per-node cloning.
type Subst struct {
	vals  []int32
	trail []int32
}

// substUnbound marks a free slot. Distinct from UnknownSym packing: vals
// holds raw symbol ids, and bound symbols are always ≥ 0 or the bind-time
// sentinel below.
const substUnbound int32 = -1

// NewSubst returns a substitution over n slots, all unbound.
func NewSubst(n int) *Subst {
	s := &Subst{}
	s.Reset(n)
	return s
}

// Reset resizes the substitution to n slots, all unbound, with an empty
// trail, reusing its buffers when they are large enough.
func (s *Subst) Reset(n int) {
	if cap(s.vals) < n {
		s.vals = make([]int32, n)
	}
	s.vals = s.vals[:n]
	for i := range s.vals {
		s.vals[i] = substUnbound
	}
	s.trail = s.trail[:0]
}

// Slots returns the number of slots.
func (s *Subst) Slots() int { return len(s.vals) }

// Value returns the symbol bound to the slot and whether it is bound.
func (s *Subst) Value(slot int32) (int32, bool) {
	v := s.vals[slot]
	return v, v != substUnbound
}

// Bind binds the slot to the symbol and records it on the trail. The slot
// must be unbound; rebinding without an undo corrupts the trail.
func (s *Subst) Bind(slot, sym int32) {
	s.vals[slot] = sym
	s.trail = append(s.trail, slot)
}

// Mark returns the current trail position for a later UndoTo.
func (s *Subst) Mark() int { return len(s.trail) }

// UndoTo unbinds every slot bound since the mark, restoring the exact
// pre-mark state.
func (s *Subst) UndoTo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		s.vals[s.trail[i]] = substUnbound
	}
	s.trail = s.trail[:mark]
}
