package keyword

import (
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/digest"
	"tatooine/internal/rdf"
	"tatooine/internal/source"
	"tatooine/internal/xmlstore"
)

// TestKeywordSearchThroughXMLSource checks that the keyword engine
// digests XML stores, discovers the name-based join to the custom
// graph, and generates an executable XPATH sub-query.
func TestKeywordSearchThroughXMLSource(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:POL1 :position :headOfState ;
  foaf:name "François Hollande" .
:POL2 :position :deputy ;
  foaf:name "Jean Dupont" .
`))
	in := core.NewInstance(g)
	store := xmlstore.NewStore("speeches")
	if err := store.Add("d1", []byte(`<speeches>
  <speech speaker="François Hollande" date="2016-02-27">
    <title>Discours agriculture</title><topic>agriculture</topic>
  </speech>
  <speech speaker="Jean Dupont" date="2015-11-20">
    <title>Etat urgence</title><topic>etatdurgence</topic>
  </speech>
</speeches>`)); err != nil {
		t.Fatal(err)
	}
	if err := in.AddSource(source.NewXMLSource("xml://speeches", store)); err != nil {
		t.Fatal(err)
	}

	cat := BuildCatalog(in)
	// The speaker attribute must be digested and overlap with foaf:name.
	sp := cat.nodes["xml://speeches#speeches/speech/@speaker"]
	if sp == nil || sp.Kind != digest.XMLPath {
		t.Fatalf("speaker node: %+v", sp)
	}
	nameNode := cat.nodes["tatooine:G#"+rdf.FOAFName]
	if nameNode == nil {
		t.Fatal("foaf:name node missing")
	}
	if ov := digest.OverlapEstimate(sp.Values, nameNode.Values); ov < 0.9 {
		t.Errorf("speaker↔name overlap: %f", ov)
	}

	// Keywords: a position (graph) and a topic (XML) — the join path
	// crosses the name bridge and the generated query must execute.
	cands, err := cat.Search([]string{"head of state", "agriculture"}, SearchOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range cands {
		res, err := in.Execute(cand.Query)
		if err != nil {
			t.Logf("candidate failed (%v): %s", err, cand.Query)
			continue
		}
		for _, row := range res.Rows {
			for _, v := range row {
				if v.Str() == "d1" {
					return // found the speech document end-to-end
				}
			}
		}
	}
	t.Error("no candidate reached the speeches store")
}
