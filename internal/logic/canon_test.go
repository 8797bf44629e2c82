package logic

import "testing"

func TestCanonicalKeyAlphaEquivalence(t *testing.T) {
	a := MustParseClause("advisedBy(X,Y) :- publication(P,X), publication(P,Y).")
	b := MustParseClause("advisedBy(S,Prof) :- publication(T,S), publication(T,Prof).")
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Errorf("alpha-variants have different keys:\n%q\n%q", CanonicalKey(a), CanonicalKey(b))
	}
}

func TestCanonicalKeyDiscriminates(t *testing.T) {
	base := MustParseClause("h(X) :- p(X,Y).")
	for _, other := range []string{
		"h(X) :- p(Y,X).",    // different variable wiring
		"h(X) :- p(X,X).",    // repeated variable
		"h(X) :- p(X,a).",    // constant vs variable
		"h(X) :- q(X,Y).",    // different predicate
		"h(X) :- p(X,Y), t.", // extra literal
		"h(X,Y) :- p(X,Y).",  // different head arity
		"h(X) :- p(X,'V1').", // constant spelled like a canonical variable
		"h(X) :- p(X,'v1').", // constant spelled like the encoding itself
	} {
		o := MustParseClause(other)
		if CanonicalKey(base) == CanonicalKey(o) {
			t.Errorf("distinct clauses share a key: %v vs %v", base, o)
		}
	}
}

func TestCanonicalKeyVariableOrderFromHead(t *testing.T) {
	// Head variables are numbered before body ones regardless of name.
	a := MustParseClause("h(A,B) :- p(B,A).")
	b := MustParseClause("h(Z,Y) :- p(Y,Z).")
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Error("head-first numbering not canonical")
	}
	if CanonicalKey(nil) != "" {
		t.Error("nil clause key not empty")
	}
}
