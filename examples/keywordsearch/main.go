// Keywordsearch demonstrates the paper's §2.2 keyword-based querying:
// digests are computed for every source of the mixed instance, the
// user's keywords are located in them, shortest join paths between the
// matches are found, and each path is translated into an executable
// Conjunctive Mixed Query — shown, then executed.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"tatooine/internal/datagen"
	"tatooine/internal/keyword"
)

func main() {
	keywords := os.Args[1:]
	if len(keywords) == 0 {
		keywords = []string{"head of state", "SIA2016"}
	}

	cfg := datagen.DefaultConfig()
	cfg.NumTweets = 4000
	ds, err := datagen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	in, err := ds.Instance()
	if err != nil {
		log.Fatal(err)
	}

	// Digest every source under the default space budget.
	cat := keyword.BuildCatalog(in)
	fmt.Printf("catalog: %d digests\n", len(cat.Digests()))
	for _, d := range cat.Digests() {
		fmt.Printf("  %-18s %d nodes\n", d.Source, len(d.Nodes))
	}

	// Show where each keyword matches (the "digest matches" the
	// demonstration lets the audience inspect before execution).
	matches, err := cat.Matches(keywords)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndigest matches:")
	for i, kw := range keywords {
		var where []string
		for _, m := range matches[i] {
			exact := "bloom"
			if m.Exact {
				exact = "exact"
			}
			where = append(where, fmt.Sprintf("%s@%s(%s)", m.Node.Label, m.Node.Source, exact))
		}
		fmt.Printf("  %-16q → %s\n", kw, strings.Join(where, ", "))
	}

	// Generate and run the candidate queries.
	cands, err := cat.Search(keywords, keyword.SearchOptions{MaxCandidates: 3})
	if err != nil {
		log.Fatal(err)
	}
	for i, cand := range cands {
		fmt.Printf("\n-- candidate %d (path weight %.2f)\n", i+1, cand.Weight)
		fmt.Println("   join path:", cat.Explain(cand))
		fmt.Println("   query:    ", cand.Query)
		res, err := in.Execute(cand.Query)
		if err != nil {
			fmt.Println("   execution failed:", err)
			continue
		}
		fmt.Printf("   results:   %d rows\n", len(res.Rows))
		for j, row := range res.Rows {
			if j >= 3 {
				fmt.Println("   …")
				break
			}
			fmt.Printf("   %v\n", row)
		}
	}
}
