// Statemergency reproduces Figure 3 of the paper: the weekly evolution
// of French politicians' vocabulary on the state of emergency, one tag
// cloud per (week, party), terms ranked by exponentiated PMI and
// coloured by political current. It generates the synthetic corpus,
// classifies every tweet through the custom graph (the scenario (2)
// mixed query), computes the clouds and writes tagcloud.html.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"tatooine/internal/analytics"
	"tatooine/internal/datagen"
	"tatooine/internal/viz"
)

var (
	out    = flag.String("o", "tagcloud.html", "output HTML file")
	tweets = flag.Int("tweets", 20000, "corpus size")
	topK   = flag.Int("k", 10, "terms per cloud")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := datagen.DefaultConfig()
	cfg.NumTweets = *tweets
	cfg.Weeks = 4 // Figure 3 shows four weeks after the November 2015 attacks
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "corpus: %d tweets by %d politicians over %d weeks\n",
		ds.Tweets.Count(), len(ds.Politicians), cfg.Weeks)

	// The classifier is the analytic equivalent of the scenario (2)
	// mixed query: join each tweet's author with the custom RDF graph
	// to find the party, and bucket by week.
	clouds := analytics.ComputeTagClouds(ds.Tweets, "text", ds.Classifier(), *topK, 3)

	currents := datagen.CurrentOfParty()
	fmt.Fprintln(w, viz.RenderText(clouds, currents, 6))

	html := viz.RenderHTML(clouds, viz.HTMLOptions{
		Title:     "Weekly vocabulary by party — state of emergency (synthetic reproduction of Figure 3)",
		CurrentOf: currents,
		WeekLabel: func(w int) string { return fmt.Sprintf("week %d after the attacks", w) },
	})
	if err := os.WriteFile(*out, []byte(html), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", *out)

	// The Figure 3 storyline check: the ecologists' objection
	// vocabulary should be amplified in week 3 relative to week 2.
	report := func(week int) float64 {
		for _, wc := range clouds.Weeks {
			if wc.Week != week {
				continue
			}
			for _, ts := range wc.Parties["EELV"] {
				if ts.Term == "abu" || ts.Term == "exc" || ts.Term == "risqu" {
					return ts.Score
				}
			}
		}
		return 0
	}
	fmt.Fprintf(w, "EELV objection-term PMI: week2=%.2f week3=%.2f (paper: objections appear in the third week)\n",
		report(2), report(3))
	return nil
}
