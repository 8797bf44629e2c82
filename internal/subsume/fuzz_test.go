package subsume

import (
	"testing"

	"repro/internal/logic"
)

// FuzzSubsumesBodyOracle cross-checks the backtracking matcher against a
// brute-force oracle that enumerates every literal-to-literal assignment.
// Bodies are decoded from the fuzz input over a tiny vocabulary (three
// predicates, three variables, three constants) and capped at 4 and 5
// literals, so the oracle stays exhaustive and the matcher's node budget
// (1<<21) can never be the reason the two disagree.

// fuzzPreds is the decoding vocabulary: predicate symbol and arity.
var fuzzPreds = []struct {
	name  string
	arity int
}{
	{"p", 2},
	{"q", 1},
	{"r", 2},
}

// fuzzTerms are the argument choices; three variables and three constants
// give the matcher shared variables, repeated variables, and ground
// mismatches to chew on.
var fuzzTerms = []logic.Term{
	logic.Var("X"), logic.Var("Y"), logic.Var("Z"),
	logic.Const("a"), logic.Const("b"), logic.Const("c"),
}

// decodeAtoms consumes bytes from data at *i: one count byte, then one
// predicate byte plus arity term bytes per literal. Truncated input yields
// a shorter body, never an error — every byte string decodes.
func decodeAtoms(data []byte, i *int, maxLits int) []logic.Atom {
	if *i >= len(data) {
		return nil
	}
	n := int(data[*i]) % (maxLits + 1)
	*i++
	atoms := make([]logic.Atom, 0, n)
	for k := 0; k < n && *i < len(data); k++ {
		pred := fuzzPreds[int(data[*i])%len(fuzzPreds)]
		*i++
		args := make([]logic.Term, pred.arity)
		for j := range args {
			var b byte
			if *i < len(data) {
				b = data[*i]
				*i++
			}
			args[j] = fuzzTerms[int(b)%len(fuzzTerms)]
		}
		atoms = append(atoms, logic.NewAtom(pred.name, args...))
	}
	return atoms
}

// oracleSubsumesBody decides body θ-subsumption by exhaustive search: it
// skolemizes dBody exactly as the engine does (variables become reserved
// constants no generated constant can collide with), then tries every
// mapping of cBody literals onto dBody literals, threading variable
// bindings. Many-to-one mappings are allowed, as in θ-subsumption.
func oracleSubsumesBody(cBody, dBody []logic.Atom) bool {
	s := logic.NewSubstitution()
	for _, a := range dBody {
		for _, v := range a.Vars() {
			s.Bind(v, logic.Const("\x00oracle:"+v))
		}
	}
	ground := make([]logic.Atom, len(dBody))
	for i, a := range dBody {
		ground[i] = a.Apply(s)
	}
	var try func(i int, bind map[string]string) bool
	try = func(i int, bind map[string]string) bool {
		if i == len(cBody) {
			return true
		}
		lit := cBody[i]
		for _, d := range ground {
			if d.Pred != lit.Pred || len(d.Args) != len(lit.Args) {
				continue
			}
			next := bind
			copied := false
			ok := true
			for j, t := range lit.Args {
				val := d.Args[j].Name
				if !t.IsVar {
					if t.Name != val {
						ok = false
						break
					}
					continue
				}
				if bound, exists := next[t.Name]; exists {
					if bound != val {
						ok = false
						break
					}
					continue
				}
				if !copied {
					m := make(map[string]string, len(next)+1)
					for k, v := range next {
						m[k] = v
					}
					next = m
					copied = true
				}
				next[t.Name] = val
			}
			if ok && try(i+1, next) {
				return true
			}
		}
		return false
	}
	return try(0, map[string]string{})
}

func FuzzSubsumesBodyOracle(f *testing.F) {
	// Seeds: a shared-variable chain that subsumes, a repeated-variable
	// pattern that must not, a ground mismatch, and an empty source body.
	f.Add([]byte{2, 0, 0, 1, 0, 1, 2, 2, 0, 3, 4, 0, 4, 5})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 3, 4})
	f.Add([]byte{1, 2, 3, 5, 1, 2, 3, 4})
	f.Add([]byte{0, 3, 0, 0, 1, 1, 3, 2, 4, 5})
	f.Add([]byte{4, 0, 0, 1, 2, 1, 2, 0, 2, 1, 1, 0, 5, 0, 0, 3, 1, 4, 2, 5, 5})
	// Constants in the source narrowing the domains, with a repeated
	// variable, and a two-component source (p-chain ⊥ lone q).
	f.Add([]byte{3, 0, 0, 3, 0, 3, 0, 2, 0, 0, 3, 0, 4, 3, 0, 3, 4, 2, 4, 4})
	f.Add([]byte{2, 0, 0, 1, 1, 2, 2, 0, 3, 4, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		cBody := decodeAtoms(data, &i, 4)
		dBody := decodeAtoms(data, &i, 5)
		got := Subsumes(headed(cBody), headed(dBody))
		want := oracleSubsumesBody(cBody, dBody)
		if got != want {
			t.Fatalf("Subsumes=%v oracle=%v\nc: %v\nd: %v", got, want, cBody, dBody)
		}
	})
}
