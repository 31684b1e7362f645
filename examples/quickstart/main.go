// Quickstart: build a small mixed instance by hand — a custom RDF
// graph of politicians plus a tweet store — and run (a) the paper's
// qSIA mixed query and (b) a keyword search that generates the same
// query automatically.
package main

import (
	"fmt"
	"log"

	"tatooine/internal/core"
	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/keyword"
	"tatooine/internal/rdf"
	"tatooine/internal/source"
)

func main() {
	// 1. The custom application-dependent RDF graph G: who the
	// politicians are, their positions and social accounts.
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
@prefix pol: <http://t.example/pol/> .
pol:POL01140 a :politician ;
  :position :headOfState ;
  foaf:name "François Hollande" ;
  :twitterAccount "fhollande" .
pol:POL02 a :politician ;
  :position :deputy ;
  foaf:name "Jean Dupont" ;
  :twitterAccount "jdupont" .
`))

	// 2. A Solr-like tweet source.
	tweets := fulltext.NewIndex("tweets", fulltext.Schema{
		"text":              fulltext.TextField,
		"user.screen_name":  fulltext.KeywordField,
		"entities.hashtags": fulltext.KeywordField,
	})
	addTweet(tweets, "t1", "fhollande", "Je suis là aujourd'hui pour montrer la solidarité nationale #SIA2016", "SIA2016")
	addTweet(tweets, "t2", "jdupont", "Les agriculteurs au salon #SIA2016", "SIA2016")
	addTweet(tweets, "t3", "fhollande", "Débat sur l'état d'urgence", "EtatDurgence")

	// 3. Assemble the mixed instance I = (G, D).
	in := core.NewInstance(g, core.WithPrefixes(map[string]string{
		"": "http://t.example/", "pol": "http://t.example/pol/",
	}))
	if err := in.AddSource(source.NewDocSource("solr://tweets", tweets)); err != nil {
		log.Fatal(err)
	}

	// 4. The paper's running mixed query qSIA (§2.2): tweets from heads
	// of state about #SIA2016. The GRAPH atom binds ?id from G; the
	// tweet atom is bind-joined on it.
	res, err := in.Query(`
QUERY qSIA(?t, ?id)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id, user.screen_name }
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("qSIA results:")
	for _, row := range res.Rows {
		fmt.Printf("  tweet=%s author=%s\n", row[0], row[1])
	}
	fmt.Printf("stats: %d sub-queries, %d bind joins, %d waves\n\n",
		res.Stats.SubQueries, res.Stats.BindJoins, res.Stats.Waves)

	// 5. The same query, discovered from keywords: digests are built
	// for every source, the keywords located in them, and the shortest
	// join path turned into a CMQ.
	cat := keyword.BuildCatalog(in)
	cands, err := cat.Search([]string{"head of state", "SIA2016"}, keyword.SearchOptions{MaxCandidates: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("keyword search \"head of state\" + \"SIA2016\" generated:")
	fmt.Println("  path: ", cat.Explain(cands[0]))
	fmt.Println("  query:", cands[0].Query)
	res2, err := in.Execute(cands[0].Query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  rows: %d (first: %v)\n", len(res2.Rows), res2.Rows[0])
}

func addTweet(ix *fulltext.Index, id, author, text, hashtag string) {
	d := &doc.Document{ID: id}
	d.Set("text", text)
	d.Set("user.screen_name", author)
	d.Set("entities.hashtags", []any{hashtag})
	if err := ix.Add(d); err != nil {
		log.Fatal(err)
	}
}
