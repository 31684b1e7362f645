package keyword

import (
	"strings"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
)

// TestKeywordPathAcrossForeignKey checks join-path discovery *inside* a
// relational source: two keywords in different tables connected by a
// key–foreign-key edge must generate a SQL join.
func TestKeywordPathAcrossForeignKey(t *testing.T) {
	db := relstore.NewDatabase("insee")
	for _, q := range []string{
		"CREATE TABLE departements (code TEXT PRIMARY KEY, name TEXT)",
		`CREATE TABLE resultats (dept TEXT, parti TEXT, voix INT,
			FOREIGN KEY (dept) REFERENCES departements(code))`,
		"INSERT INTO departements VALUES ('75', 'Paris'), ('29', 'Finistere')",
		"INSERT INTO resultats VALUES ('75', 'SocParty', 350000), ('29', 'ConsParty', 120000)",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	in := core.NewInstance(rdf.NewGraph())
	if err := in.AddSource(source.NewRelSource("sql://insee", db)); err != nil {
		t.Fatal(err)
	}
	cat := BuildCatalog(in)
	cands, err := cat.Search([]string{"Paris", "SocParty"}, SearchOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	for _, cand := range cands {
		q := cand.Query
		// Expect at least one candidate whose SQL joins the two tables.
		text := ""
		for _, a := range q.Atoms {
			text += a.Sub.Text + " "
		}
		if !strings.Contains(text, "JOIN") {
			continue
		}
		res, err := in.Execute(q)
		if err != nil {
			t.Logf("candidate failed (%v): %s", err, q)
			continue
		}
		if len(res.Rows) != 1 {
			t.Errorf("FK-join candidate rows: %+v", res.Rows)
		}
		ran = true
	}
	if !ran {
		for _, cand := range cands {
			t.Logf("candidate: %s (path %s)", cand.Query, cat.Explain(cand))
		}
		t.Error("no FK-join candidate generated and executed")
	}
}

// TestKeywordRelationalToDocPath checks a path that starts in a
// relational attribute and crosses an overlap edge into the tweet
// store (departement codes appearing in tweets' text is synthetic here
// via a shared code field).
func TestKeywordRelationalToDocPath(t *testing.T) {
	in := fixture(t) // politics graph + tweets + insee
	cat := BuildCatalog(in)
	// "Paris" lives in departements.name only; "fhollande" in the graph
	// and the tweet store. No path may exist (disconnected) — accept
	// either an error or candidates; what must not happen is a panic or
	// a wrong-result execution.
	cands, err := cat.Search([]string{"Paris", "fhollande"}, SearchOptions{MaxCandidates: 2})
	if err != nil {
		return // disconnected is a legitimate outcome
	}
	for _, cand := range cands {
		if _, err := in.Execute(cand.Query); err != nil {
			t.Logf("candidate failed cleanly: %v", err)
		}
	}
}
