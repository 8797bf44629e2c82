package logic

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// corpusStrings reads the string inputs of one checked-in fuzz corpus
// (testdata/fuzz/<target>), so the interning round trip is exercised on
// exactly the inputs the parser fuzzers accumulated.
func corpusStrings(t *testing.T, target string) []string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus %s: %v", dir, err)
	}
	var out []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading corpus file: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			s, err := strconv.Unquote(line[len("string(") : len(line)-1])
			if err != nil {
				t.Fatalf("unquoting corpus line %q: %v", line, err)
			}
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		t.Fatalf("corpus %s is empty", dir)
	}
	return out
}

// checkAtomRoundTrip asserts Extern(Intern(a)) reproduces a exactly:
// syntactic equality, printer output, and — for ground atoms — Key().
func checkAtomRoundTrip(t *testing.T, a Atom) {
	t.Helper()
	syms, vars := NewSymbols(), NewVarSlots()
	ia := Intern(syms, vars, a)
	back := Extern(syms, vars, ia)
	if !a.Equal(back) {
		t.Fatalf("intern round trip changed the atom: %v -> %v", a, back)
	}
	if a.String() != back.String() {
		t.Fatalf("intern round trip changed the printed form: %q -> %q", a, back)
	}
	if a.IsGround() {
		if !back.IsGround() {
			t.Fatalf("intern round trip lost groundness: %v -> %v", a, back)
		}
		if a.Key() != back.Key() {
			t.Fatalf("intern round trip changed Key(): %q -> %q", a.Key(), back.Key())
		}
	}
}

// TestInternRoundTripCorpora runs the round trip over every parseable
// input of the checked-in parser fuzz corpora, clause and atom alike.
func TestInternRoundTripCorpora(t *testing.T) {
	for _, src := range corpusStrings(t, "FuzzParseAtomRoundTrip") {
		a, err := ParseAtom(src)
		if err != nil {
			continue
		}
		checkAtomRoundTrip(t, a)
	}
	for _, src := range corpusStrings(t, "FuzzParseClauseRoundTrip") {
		c, err := ParseClause(src)
		if err != nil {
			continue
		}
		// One shared table pair per clause: variables repeated across
		// literals must come back as the same variable.
		syms, vars := NewSymbols(), NewVarSlots()
		atoms := append([]Atom{c.Head}, c.Body...)
		interned := make([]IAtom, len(atoms))
		for i, a := range atoms {
			interned[i] = Intern(syms, vars, a)
		}
		back := &Clause{Head: Extern(syms, vars, interned[0])}
		for _, ia := range interned[1:] {
			back.Body = append(back.Body, Extern(syms, vars, ia))
		}
		if !c.Equal(back) {
			t.Fatalf("intern round trip changed the clause: %v -> %v", c, back)
		}
		if c.String() != back.String() {
			t.Fatalf("intern round trip changed the printed clause: %q -> %q", c, back)
		}
	}
}

// TestQuickInternRoundTrip is the same property over random atoms,
// including quote-needing and empty constants.
func TestQuickInternRoundTrip(t *testing.T) {
	f := func(v clauseValue) bool {
		syms, vars := NewSymbols(), NewVarSlots()
		for _, a := range append([]Atom{v.c.Head}, v.c.Body...) {
			back := Extern(syms, vars, Intern(syms, vars, a))
			if !a.Equal(back) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestInternSharedSymbols: ids are stable across repeat interning, and
// predicates and constants with equal names share one id (one space).
func TestInternSharedSymbols(t *testing.T) {
	syms := NewSymbols()
	a := syms.Intern("p")
	b := syms.Intern("q")
	if a == b {
		t.Fatalf("distinct names share an id")
	}
	if again := syms.Intern("p"); again != a {
		t.Fatalf("re-interning changed the id: %d != %d", again, a)
	}
	if syms.Len() != 2 {
		t.Fatalf("Len = %d, want 2", syms.Len())
	}
	if _, ok := syms.Lookup("r"); ok {
		t.Fatalf("Lookup invented a symbol")
	}
	if name := syms.Name(b); name != "q" {
		t.Fatalf("Name(%d) = %q", b, name)
	}
}

// TestSubstTrailUndo: UndoTo restores the exact pre-mark state — bindings
// made before the mark survive, bindings after it vanish — across nested
// mark/undo rounds, the backtracking pattern of the compiled matcher.
func TestSubstTrailUndo(t *testing.T) {
	s := NewSubst(5)
	snapshot := func() []int32 {
		out := make([]int32, s.Slots())
		for i := range out {
			v, ok := s.Value(int32(i))
			if !ok {
				v = -1
			}
			out[i] = v
		}
		return out
	}
	equal := func(a, b []int32) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	s.Bind(0, 7)
	before := snapshot()
	m1 := s.Mark()
	s.Bind(1, 8)
	s.Bind(2, 9)
	mid := snapshot()
	m2 := s.Mark()
	s.Bind(3, 10)
	s.Bind(4, 11)
	if v, ok := s.Value(3); !ok || v != 10 {
		t.Fatalf("Value(3) = %d,%v", v, ok)
	}
	s.UndoTo(m2)
	if !equal(snapshot(), mid) {
		t.Fatalf("inner undo: got %v, want %v", snapshot(), mid)
	}
	if _, ok := s.Value(4); ok {
		t.Fatalf("slot 4 still bound after undo")
	}
	s.UndoTo(m1)
	if !equal(snapshot(), before) {
		t.Fatalf("outer undo: got %v, want %v", snapshot(), before)
	}
	if v, ok := s.Value(0); !ok || v != 7 {
		t.Fatalf("pre-mark binding lost: %d,%v", v, ok)
	}
	// Rebinding after undo works and lands on the trail again.
	s.Bind(1, 12)
	if v, ok := s.Value(1); !ok || v != 12 {
		t.Fatalf("rebinding after undo failed: %d,%v", v, ok)
	}
	// Reset unbinds everything and resizes, keeping nothing on the trail.
	s.Reset(3)
	if s.Slots() != 3 || s.Mark() != 0 {
		t.Fatalf("after Reset(3): %d slots, trail %d", s.Slots(), s.Mark())
	}
	for i := int32(0); i < 3; i++ {
		if _, ok := s.Value(i); ok {
			t.Fatalf("slot %d bound after Reset", i)
		}
	}
	s.Reset(8)
	if _, ok := s.Value(7); ok || s.Slots() != 8 {
		t.Fatalf("Reset(8) left %d slots or slot 7 bound", s.Slots())
	}
}

// TestITermPacking: the packed representation distinguishes variables from
// constants and preserves ids, including the UnknownSym sentinel.
func TestITermPacking(t *testing.T) {
	for _, sym := range []int32{0, 1, 1 << 20, UnknownSym} {
		tm := ConstITerm(sym)
		if tm.IsVar() {
			t.Fatalf("ConstITerm(%d) reads as a variable", sym)
		}
		if tm.Sym() != sym {
			t.Fatalf("ConstITerm(%d).Sym() = %d", sym, tm.Sym())
		}
	}
	for _, slot := range []int32{0, 3, 1 << 20} {
		tm := VarITerm(slot)
		if !tm.IsVar() {
			t.Fatalf("VarITerm(%d) reads as a constant", slot)
		}
		if tm.Slot() != slot {
			t.Fatalf("VarITerm(%d).Slot() = %d", slot, tm.Slot())
		}
	}
}
