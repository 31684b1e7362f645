package digest

import (
	"encoding/json"
	"fmt"
	"testing"

	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// docFixture is a small tweets index: an analyzed text field, two
// keyword fields and a numeric one.
func docFixture(t testing.TB) *fulltext.Index {
	t.Helper()
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text":              fulltext.TextField,
		"user.screen_name":  fulltext.KeywordField,
		"entities.hashtags": fulltext.KeywordField,
		"retweets":          fulltext.NumericField,
	})
	for i, u := range []string{"fhollande", "jdupont", "fhollande"} {
		d := &doc.Document{ID: fmt.Sprintf("t%d", i)}
		d.Set("text", "solidarité #SIA2016")
		d.Set("user.screen_name", u)
		d.Set("entities.hashtags", []any{"SIA2016"})
		d.Set("retweets", float64(3*i))
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func probeSub(text string, inVars ...string) source.SubQuery {
	return source.SubQuery{Language: source.LangSQL, Text: text, InVars: inVars}
}

func TestParamMatcherSQLEquality(t *testing.T) {
	d := BuildRelational("sql://insee", relFixture(t), DefaultBudget())
	m := Analyze(d, probeSub("SELECT name FROM departements WHERE code = ?", "code"), nil).Matcher
	if m == nil {
		t.Fatal("equality on a digested column must be prunable")
	}
	if !m.MayMatch(value.Row{value.NewString("75")}) {
		t.Error("present key pruned — a false negative loses rows")
	}
	if m.MayMatch(value.Row{value.NewString("00")}) {
		t.Error("provably absent key not pruned")
	}
	// Values that never enter a digest must never be pruned.
	if !m.MayMatch(value.Row{value.NewNull()}) {
		t.Error("NULL binding pruned; NULLs are not digested")
	}
}

func TestParamMatcherRefusals(t *testing.T) {
	d := BuildRelational("sql://insee", relFixture(t), DefaultBudget())
	for name, q := range map[string]source.SubQuery{
		// No digested equality target for the parameter.
		"range param":   probeSub("SELECT name FROM departements WHERE population > ?", "p"),
		"unknown table": probeSub("SELECT x FROM nowhere WHERE x = ?", "x"),
		"no params":     probeSub("SELECT name FROM departements"),
	} {
		if m := Analyze(d, q, nil).Matcher; m != nil {
			t.Errorf("%s: matcher %+v, want nil (probe everything)", name, m)
		}
	}
}

// TestParamMatcherForeignVersionNil: a foreign-version digest is
// refused at decode, so the catalog records none for its source, and
// Analyze over no digest neither estimates nor prunes.
func TestParamMatcherForeignVersionNil(t *testing.T) {
	d := BuildRelational("sql://insee", relFixture(t), DefaultBudget())
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["v"] = 999
	raw, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var foreign Digest
	if err := json.Unmarshal(raw, &foreign); err == nil {
		t.Fatal("foreign-version digest decoded")
	}
	q := probeSub("SELECT name FROM departements WHERE code = ?", "code")
	if a := Analyze(nil, q, nil); a.Matcher != nil || a.Estimated {
		t.Errorf("foreign-version digest analyzed as %+v; cross-version pruning is unsafe", a)
	}
}

// TestParamMatcherBloomOnly: with the exact set over budget, the
// matcher tests bindings against the node's Bloom filter — present
// keys probe, absent ones are pruned.
func TestParamMatcherBloomOnly(t *testing.T) {
	b := DefaultBudget()
	b.ExactThreshold = 0
	d := BuildRelational("sql://insee", relFixture(t), b)
	if vs := d.Nodes["sql://insee#departements.code"].Values; vs.exact != nil || vs.bloom == nil {
		t.Fatal("the fixture no longer drops the exact set")
	}
	m := Analyze(d, probeSub("SELECT name FROM departements WHERE code = ?", "code"), nil).Matcher
	if m == nil {
		t.Fatal("a Bloom-only node must still prune")
	}
	if !m.MayMatch(value.Row{value.NewString("75")}) {
		t.Error("Bloom-only matcher excludes a present key")
	}
	if m.MayMatch(value.Row{value.NewString("code-definitely-not-present")}) {
		t.Error("Bloom-only matcher admits an absent key (flaky only if the Bloom false-positives; seed data is tiny)")
	}
}

func TestRefineEstimateSQL(t *testing.T) {
	d := BuildRelational("sql://insee", relFixture(t), DefaultBudget())
	cases := []struct {
		name string
		text string
		rows int
		ok   bool
	}{
		// 2 rows, 2 distinct codes: one row per key.
		{"present literal", "SELECT name FROM departements WHERE code = '75'", 1, true},
		// Membership proves absence: exactly zero.
		{"absent literal", "SELECT name FROM departements WHERE code = 'zz'", 0, true},
		// Parameter equality: per-key expectation without a concrete key.
		{"param equality", "SELECT name FROM departements WHERE code = ?", 1, true},
		// LIMIT caps the refined estimate.
		{"limit cap", "SELECT name FROM departements WHERE population > 0 LIMIT 1", 1, true},
		// Shapes the digest cannot speak to keep the flat estimate.
		{"no where", "SELECT name FROM departements", 0, false},
	}
	for _, c := range cases {
		a := Analyze(d, probeSub(c.text, "p"), nil)
		if rows, ok := a.Rows, a.Estimated; ok != c.ok || (ok && rows != c.rows) {
			t.Errorf("%s: (%d, %v), want (%d, %v)", c.name, rows, ok, c.rows, c.ok)
		}
	}
}

func TestOverlapEstimateEdgeCases(t *testing.T) {
	b := DefaultBudget()
	empty := NewValueSet(b)
	empty.Seal()
	full := NewValueSet(b)
	for i := 0; i < 10; i++ {
		full.Add(value.NewString(fmt.Sprintf("v-%d", i)))
	}
	full.Seal()
	if got := OverlapEstimate(nil, full); got != 0 {
		t.Errorf("nil a: %f", got)
	}
	if got := OverlapEstimate(full, nil); got != 0 {
		t.Errorf("nil b: %f", got)
	}
	if got := OverlapEstimate(empty, full); got != 0 {
		t.Errorf("empty a: %f", got)
	}
	half := NewValueSet(b)
	for i := 5; i < 15; i++ {
		half.Add(value.NewString(fmt.Sprintf("v-%d", i)))
	}
	half.Seal()
	got := OverlapEstimate(full, half)
	if got < 0.3 || got > 0.7 {
		t.Errorf("half overlap: %f, want ~0.5", got)
	}
	if got < 0 || got > 1 {
		t.Errorf("overlap out of [0,1]: %f", got)
	}
}

// FuzzBloomMayContain pins the property semi-join pruning depends on:
// a Bloom filter NEVER reports false negatives. Any value Added must
// test positive afterwards — including after a JSON wire round trip —
// or pruning would silently drop result rows.
func FuzzBloomMayContain(f *testing.F) {
	f.Add("75", "92", "zz")
	f.Add("", "a", "a")
	f.Add("Hauts-de-Seine", "\x00\xff", "émile")
	f.Add("dup", "dup", "dup")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		bl := NewBloomWithBits(64, 11)
		for _, s := range []string{a, b, c} {
			bl.Add(s)
		}
		raw, err := json.Marshal(bl)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Bloom
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{a, b, c} {
			if !bl.MayContain(s) {
				t.Fatalf("false negative for %q", s)
			}
			if !decoded.MayContain(s) {
				t.Fatalf("false negative for %q after wire round trip", s)
			}
		}
	})
}

// FuzzAnalyzeSubQuery drives arbitrary sub-query texts, in each
// language, with 0–3 IN variables through Analyze against fixed
// relational, document and RDF digests. Nothing may panic, an estimate
// is never negative, and the matcher answers any binding tuple.
func FuzzAnalyzeSubQuery(f *testing.F) {
	digests := []*Digest{
		BuildRelational("sql://insee", relFixture(f), DefaultBudget()),
		BuildDocument("solr://tweets", docFixture(f), DefaultBudget()),
		BuildRDF("tatooine:G", rdfFixture(), DefaultBudget()),
	}
	langs := []source.Language{source.LangSQL, source.LangSearch, source.LangBGP}
	prefixes := map[string]string{"": "http://t.example/"}

	f.Add(uint8(0), "SELECT name FROM departements WHERE code = ? AND population > 3 LIMIT 2", uint8(1), "75", int64(3))
	f.Add(uint8(0), "SELECT d.name FROM departements d JOIN resultats r ON d.code = r.dept WHERE r.party = ? AND ? = d.code", uint8(2), "PS", int64(0))
	f.Add(uint8(0), "SELECT name FROM departements WHERE population BETWEEN 0 AND 5000000 AND code = '75'", uint8(0), "", int64(-1))
	f.Add(uint8(1), "SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id LIMIT 5", uint8(1), "fhollande", int64(1))
	f.Add(uint8(1), "SEARCH tweets WHERE retweets BETWEEN ? AND ? AND text CONTAINS 'x' RETURN _id", uint8(2), "1", int64(9))
	f.Add(uint8(2), "q(?x) :- ?x :twitterAccount ?id . ?x a :politician . OPTIONAL { ?x :position ?p }", uint8(1), "fhollande", int64(2))
	f.Add(uint8(2), "?x ?p ?o . :POL1 a ?c", uint8(3), "", int64(7))
	f.Fuzz(func(t *testing.T, lang uint8, text string, nIn uint8, s string, n int64) {
		q := source.SubQuery{Language: langs[int(lang)%len(langs)], Text: text}
		for i := 0; i < int(nIn%4); i++ {
			q.InVars = append(q.InVars, []string{"id", "x", "code", "p"}[i])
		}
		tuples := []value.Row{
			{value.NewString(s), value.NewInt(n), value.NewNull()},
			{value.NewInt(n), value.NewNull(), value.NewString(s)},
			{value.NewNull(), value.NewString(s), value.NewInt(n)},
			{value.NewString(s)},
			nil,
		}
		for _, d := range digests {
			a := Analyze(d, q, prefixes)
			if a.Rows < 0 || (!a.Estimated && a.Rows != 0) {
				t.Fatalf("%s against %s: rows %d, estimated %v", text, d.Source, a.Rows, a.Estimated)
			}
			for _, tu := range tuples {
				a.Matcher.MayMatch(tu)
			}
		}
	})
}
