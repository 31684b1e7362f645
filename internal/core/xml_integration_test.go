package core

import (
	"testing"

	"tatooine/internal/rdf"
	"tatooine/internal/source"
	"tatooine/internal/xmlstore"
)

// TestGraphToXMLJoin exercises the structured-text source inside a
// mixed query (§2.1: XML sources accept XPath): find the speeches of
// the head of state by joining the custom graph with the speeches
// store on the speaker name.
func TestGraphToXMLJoin(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:POL1 :position :headOfState ;
  foaf:name "François Hollande" .
:POL2 :position :deputy ;
  foaf:name "Jean Dupont" .
`))
	in := NewInstance(g, WithPrefixes(map[string]string{"": "http://t.example/"}))

	store := xmlstore.NewStore("speeches")
	if err := store.Add("d1", []byte(`<speeches>
  <speech speaker="François Hollande" date="2016-02-27">
    <title>Discours agriculture</title><topic>agriculture</topic>
  </speech>
  <speech speaker="Jean Dupont" date="2015-11-20">
    <title>Etat d'urgence</title><topic>etat-durgence</topic>
  </speech>
  <speech speaker="François Hollande" date="2015-11-18">
    <title>Adresse au Congrès</title><topic>etat-durgence</topic>
  </speech>
</speeches>`)); err != nil {
		t.Fatal(err)
	}
	if err := in.AddSource(source.NewXMLSource("xml://speeches", store)); err != nil {
		t.Fatal(err)
	}

	res, err := in.Query(`
QUERY q(?name, ?sp, ?date, ?title)
GRAPH { ?x :position :headOfState . ?x foaf:name ?name }
FROM <xml://speeches> IN(?name) OUT(?sp, ?date, ?title)
  { XPATH /speeches/speech[@speaker=?] RETURN _id, @date, title }
ORDER BY ?date
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("head-of-state speeches: %+v", res.Rows)
	}
	if res.Rows[0][3].Str() != "Adresse au Congrès" || res.Rows[1][3].Str() != "Discours agriculture" {
		t.Errorf("order/titles: %+v", res.Rows)
	}
	if res.Stats.BindJoins != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

// TestXMLSourceEstimate verifies the planner gets usable estimates
// from XML sources.
func TestXMLSourceEstimate(t *testing.T) {
	store := xmlstore.NewStore("laws")
	for i := 0; i < 3; i++ {
		id := string(rune('a' + i))
		if err := store.Add(id, []byte(`<laws><law year="2015"><title>t</title></law></laws>`)); err != nil {
			t.Fatal(err)
		}
	}
	s := source.NewXMLSource("xml://laws", store)
	all, _ := s.Estimate(source.SubQuery{Language: source.LangXPath,
		Text: "XPATH /laws/law RETURN _id"}, 0)
	filtered, _ := s.Estimate(source.SubQuery{Language: source.LangXPath,
		Text: "XPATH /laws/law[@year='2015'] RETURN _id"}, 0)
	if all != 3 || filtered >= all {
		t.Errorf("estimates: all=%d filtered=%d", all, filtered)
	}
	if rows, _ := s.Estimate(source.SubQuery{Language: source.LangXPath, Text: "garbage"}, 0); rows != -1 {
		t.Error("bad query estimate should be -1")
	}
}
