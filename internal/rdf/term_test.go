package rdf

import (
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://ex.org/a"), "<http://ex.org/a>"},
		{NewLiteral("hello"), `"hello"`},
		{NewLangLiteral("bonjour", "fr"), `"bonjour"@fr`},
		{NewTypedLiteral("12", XSDInteger), `"12"^^<` + XSDInteger + `>`},
		{NewBlank("b0"), "_:b0"},
		{NewLiteral(`quote " and \ back`), `"quote \" and \\ back"`},
		{NewLiteral("line\nbreak\ttab"), `"line\nbreak\ttab"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermKeyDistinguishesKinds(t *testing.T) {
	// Same value in different kinds must have different keys.
	terms := []Term{
		NewIRI("x"),
		NewLiteral("x"),
		NewBlank("x"),
		NewLangLiteral("x", "fr"),
		NewTypedLiteral("x", "http://www.w3.org/2001/XMLSchema#string"),
	}
	seen := make(map[string]Term)
	for _, tm := range terms {
		if prev, ok := seen[tm.Key()]; ok {
			t.Errorf("key collision between %v and %v", prev, tm)
		}
		seen[tm.Key()] = tm
	}
}

func TestTermKeyInjective(t *testing.T) {
	// Property: distinct (value, lang, datatype) literals have distinct keys.
	f := func(v1, v2, lang1, lang2 string) bool {
		t1 := Term{Kind: Literal, Value: v1, Lang: lang1}
		t2 := Term{Kind: Literal, Value: v2, Lang: lang2}
		if t1 == t2 {
			return t1.Key() == t2.Key()
		}
		return t1.Key() != t2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsZero(t *testing.T) {
	if !(Term{}).IsZero() {
		t.Error("zero Term should be zero")
	}
	if NewIRI("x").IsZero() {
		t.Error("non-empty IRI should not be zero")
	}
	if NewLiteral("").IsZero() {
		// An empty plain literal is a valid term, distinct from zero.
		t.Error("empty literal should not be zero")
	}
}

func TestTermKindString(t *testing.T) {
	if IRI.String() != "iri" || Literal.String() != "literal" || Blank.String() != "blank" {
		t.Error("TermKind.String mismatch")
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	a := d.Intern(NewIRI("http://ex.org/a"))
	b := d.Intern(NewLiteral("a"))
	if a == b {
		t.Fatal("distinct terms interned to same ID")
	}
	if again := d.Intern(NewIRI("http://ex.org/a")); again != a {
		t.Errorf("re-intern gave %d, want %d", again, a)
	}
	if got := d.Term(a); got != NewIRI("http://ex.org/a") {
		t.Errorf("Term(%d) = %v", a, got)
	}
	if d.Lookup(NewIRI("http://ex.org/missing")) != NoTerm {
		t.Error("Lookup of missing term should be NoTerm")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if !d.Term(NoTerm).IsZero() {
		t.Error("Term(NoTerm) should be zero")
	}
	if !d.Term(999).IsZero() {
		t.Error("Term(out of range) should be zero")
	}
}

func TestDictionaryConcurrent(t *testing.T) {
	d := NewDictionary()
	const n = 64
	done := make(chan TermID, n)
	for i := 0; i < n; i++ {
		go func() { done <- d.Intern(NewIRI("http://ex.org/same")) }()
	}
	first := <-done
	for i := 1; i < n; i++ {
		if id := <-done; id != first {
			t.Fatalf("concurrent interns disagree: %d vs %d", id, first)
		}
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}
