package coverage

import (
	"testing"

	"repro/internal/logic"
)

// TestSetKeyGolden pins SetKey to the digests of the original
// implementation, which hashed each example's Atom.Key string plus a NUL
// through hash/fnv: memo-cache keys must not change when the hash moves
// onto the atoms' strings directly. The lists cover the empty set,
// zero-arity and empty-string constants, quoting-sensitive names and two
// atoms whose concatenated names coincide.
func TestSetKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		examples []logic.Atom
		want     string
	}{
		{nil, "0:cbf29ce484222325"},
		{[]logic.Atom{logic.GroundAtom("advisedBy", "abe", "pat")}, "1:97c8c88b0181a77"},
		{[]logic.Atom{logic.GroundAtom("advisedBy", "abe", "pat"), logic.GroundAtom("advisedBy", "pat", "abe")}, "2:1fc4794ce20a0761"},
		{[]logic.Atom{logic.GroundAtom("p"), logic.GroundAtom("q", ""), logic.GroundAtom("r", "", "")}, "3:ad5e3d16187b3336"},
		{[]logic.Atom{logic.GroundAtom("e", "it's", `a\b`, "x y"), logic.GroundAtom("e", "Upper", "_u", "1")}, "2:78f7f99618f47b87"},
		{[]logic.Atom{logic.GroundAtom("ab", "c"), logic.GroundAtom("a", "bc")}, "2:1379ca26a98138d9"},
	} {
		if got := SetKey(tc.examples); got != tc.want {
			t.Errorf("SetKey(%v) = %q, want %q", tc.examples, got, tc.want)
		}
	}
	exs := exampleAtoms(64)
	if n := testing.AllocsPerRun(100, func() { SetKey(exs) }); n > 2 {
		t.Errorf("SetKey allocates %.0f times per call, want at most 2 (the result string)", n)
	}
}
