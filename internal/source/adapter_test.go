package source

import (
	"testing"

	"tatooine/internal/rdf"
	"tatooine/internal/value"
	"tatooine/internal/xmlstore"
)

func TestAdapterMetadata(t *testing.T) {
	rdfSrc := NewRDFSource("rdf://g", polGraph(t), false)
	relSrc := NewRelSource("sql://d", relDB(t))
	docSrc := NewDocSource("solr://t", tweetIndex(t))
	store := xmlstore.NewStore("sp")
	xmlSrc := NewXMLSource("xml://sp", store)

	if rdfSrc.Model() != RDFModel || rdfSrc.Graph() == nil {
		t.Error("rdf adapter metadata")
	}
	if relSrc.Model() != RelationalModel || relSrc.DB() == nil {
		t.Error("rel adapter metadata")
	}
	if docSrc.Model() != DocumentModel || docSrc.Index() == nil {
		t.Error("doc adapter metadata")
	}
	if xmlSrc.Model() != DocumentModel || xmlSrc.Store() != store || xmlSrc.URI() != "xml://sp" {
		t.Error("xml adapter metadata")
	}
	if !Accepts(xmlSrc, LangXPath) || Accepts(xmlSrc, LangSQL) {
		t.Error("xml languages")
	}
}

func TestRDFSourceWithPrefixes(t *testing.T) {
	s := NewRDFSource("rdf://g", polGraph(t), false).
		WithPrefixes(map[string]string{"t": "http://t.example/"})
	res, err := s.Execute(SubQuery{
		Language: LangBGP,
		Text:     `q(?x) :- ?x t:position t:headOfState`,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("prefixed query rows: %d", res.Len())
	}
}

func TestRDFSourceEstimate(t *testing.T) {
	s := NewRDFSource("rdf://g", polGraph(t), false)
	all, _ := s.Estimate(SubQuery{Language: LangBGP,
		Text: `q(?x, ?p, ?o) :- ?x ?p ?o`}, 0)
	narrow, _ := s.Estimate(SubQuery{Language: LangBGP,
		Text: `q(?x) :- ?x <http://t.example/position> <http://t.example/headOfState> . ?x ?p ?o`}, 0)
	if all <= 0 {
		t.Errorf("all estimate: %d", all)
	}
	if narrow >= all {
		t.Errorf("selective pattern should shrink the estimate: %d vs %d", narrow, all)
	}
	if rows, _ := s.Estimate(SubQuery{Language: LangBGP, Text: "garbage :-"}, 0); rows != -1 {
		t.Error("bad BGP estimate should be -1")
	}
}

func TestXMLSourceExecuteThroughAdapter(t *testing.T) {
	store := xmlstore.NewStore("speeches")
	if err := store.Add("d1", []byte(`<speeches>
<speech speaker="A"><topic>agriculture</topic></speech>
<speech speaker="B"><topic>economie</topic></speech>
</speeches>`)); err != nil {
		t.Fatal(err)
	}
	s := NewXMLSource("xml://sp", store)
	res, err := s.Execute(SubQuery{
		Language: LangXPath,
		Text:     "XPATH /speeches/speech[@speaker=?] RETURN _id, topic",
		InVars:   []string{"n"},
	}, []value.Value{value.NewString("B")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][1].Str() != "economie" {
		t.Errorf("xml adapter rows: %+v", res.Rows)
	}
	if _, err := s.Execute(SubQuery{Language: LangSQL, Text: "SELECT 1"}, nil); err == nil {
		t.Error("wrong language accepted")
	}
	if _, err := s.Execute(SubQuery{Language: LangXPath, Text: "garbage"}, nil); err == nil {
		t.Error("bad query accepted")
	}
}

func TestSelectivityFactorShapes(t *testing.T) {
	s := NewRelSource("sql://d", relDB(t))
	base, _ := s.Estimate(SubQuery{Language: LangSQL, Text: "SELECT * FROM departements"}, 0)
	cases := []string{
		"SELECT * FROM departements WHERE code = '75' AND name = 'Paris'",
		"SELECT * FROM departements WHERE population > 1",
		"SELECT * FROM departements WHERE code IN ('75','92')",
		"SELECT * FROM departements WHERE population BETWEEN 1 AND 2",
		"SELECT * FROM departements WHERE code = '75' OR code = '92'",
		"SELECT * FROM departements LIMIT 1",
	}
	for _, q := range cases {
		est, _ := s.Estimate(SubQuery{Language: LangSQL, Text: q}, 0)
		if est < 0 || est > base {
			t.Errorf("%q estimate %d out of range (base %d)", q, est, base)
		}
	}
	// Joins keep the estimate at least at the larger side.
	joined, _ := s.Estimate(SubQuery{Language: LangSQL,
		Text: "SELECT * FROM departements d JOIN departements e ON d.code = e.code"}, 0)
	if joined < base {
		t.Errorf("join estimate %d below base %d", joined, base)
	}
}

func TestTermToValueDateTime(t *testing.T) {
	v := TermToValue(rdf.NewTypedLiteral("2016-03-01T03:42:31Z", rdf.XSDDateTime))
	if v.Kind() != value.Time {
		t.Errorf("datetime kind: %v", v.Kind())
	}
	back := ValueToTerm(v)
	if back.Datatype != rdf.XSDDateTime {
		t.Errorf("datetime round trip: %v", back)
	}
}
