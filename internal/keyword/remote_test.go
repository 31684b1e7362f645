package keyword

import (
	"net/http/httptest"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/doc"
	"tatooine/internal/federation"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/source"
)

// TestRemoteSourceParticipatesInKeywordSearch serves the tweet store
// over HTTP, registers only the federation client with the mediator,
// and verifies the keyword engine pulls the remote digest and still
// generates the qSIA-style query across the wire.
func TestRemoteSourceParticipatesInKeywordSearch(t *testing.T) {
	// Remote tweet source.
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text":              fulltext.TextField,
		"user.screen_name":  fulltext.KeywordField,
		"entities.hashtags": fulltext.KeywordField,
	})
	d := &doc.Document{ID: "t1"}
	d.Set("text", "solidarité #SIA2016")
	d.Set("user.screen_name", "fhollande")
	d.Set("entities.hashtags", []any{"SIA2016"})
	if err := ix.Add(d); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(federation.Handler(source.NewDocSource("solr://tweets", ix)))
	defer srv.Close()

	// Local mediator: graph + the remote client.
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:POL1 :position :headOfState ;
  :twitterAccount "fhollande" .
`))
	in := core.NewInstance(g)
	client, err := federation.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.AddSource(client); err != nil {
		t.Fatal(err)
	}

	cat := BuildCatalog(in)
	if len(cat.Digests()) != 2 { // G + remote tweets
		t.Fatalf("digests: %d", len(cat.Digests()))
	}
	cands, err := cat.Search([]string{"head of state", "SIA2016"}, SearchOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range cands {
		res, err := in.Execute(cand.Query)
		if err != nil {
			continue
		}
		for _, row := range res.Rows {
			for _, v := range row {
				if v.Str() == "t1" {
					return // the remote tweet was found end-to-end
				}
			}
		}
	}
	t.Error("no candidate over the remote source produced the tweet")
}

// TestRemoteSourceChangeReachesCatalog: BuildCatalog reads source digests
// from the instance's digest catalog, so a served source that changed
// shows its new values once the mediator is told with InvalidateSource.
func TestRemoteSourceChangeReachesCatalog(t *testing.T) {
	ix := fulltext.NewIndex("tweets", fulltext.Schema{"entities.hashtags": fulltext.KeywordField})
	add := func(id, tag string) {
		t.Helper()
		d := &doc.Document{ID: id}
		d.Set("entities.hashtags", []any{tag})
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	add("t1", "SIA2016")
	srv := httptest.NewServer(federation.Handler(source.NewDocSource("solr://tweets", ix)))
	defer srv.Close()
	client, err := federation.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	in := core.NewInstance(nil)
	if err := in.AddSource(client); err != nil {
		t.Fatal(err)
	}
	hashtagHit := func() bool {
		for _, n := range BuildCatalog(in).Lookup("EtatDurgence") {
			if n.Source == "solr://tweets" {
				return true
			}
		}
		return false
	}
	if hashtagHit() {
		t.Fatal("hashtag found before it was indexed")
	}
	add("t2", "EtatDurgence")
	if _, _, err := in.InvalidateSource("solr://tweets"); err != nil {
		t.Fatal(err)
	}
	if !hashtagHit() {
		t.Error("the catalog built after InvalidateSource misses the new hashtag")
	}
}
