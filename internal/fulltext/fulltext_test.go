package fulltext

import (
	"fmt"
	"testing"

	"tatooine/internal/doc"
	"tatooine/internal/value"
)

// TweetSchema mirrors the paper's Solr tweet collection: stemmed text,
// author/hashtag keyword lookup, retweet count and timestamp ranges.
func tweetSchema() Schema {
	return Schema{
		"text":              TextField,
		"user.screen_name":  KeywordField,
		"entities.hashtags": KeywordField,
		"retweet_count":     NumericField,
		"created_at":        TimeField,
	}
}

func mkTweet(id, author, text string, hashtags []string, retweets int, ts string) *doc.Document {
	d := &doc.Document{ID: id}
	d.Set("text", text)
	d.Set("user.screen_name", author)
	d.Set("retweet_count", retweets)
	d.Set("created_at", ts)
	tags := make([]any, len(hashtags))
	for i, h := range hashtags {
		tags[i] = h
	}
	d.Set("entities.hashtags", tags)
	return d
}

func testIndex(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex("tweets", tweetSchema())
	tweets := []*doc.Document{
		mkTweet("t1", "fhollande", "Je suis là pour montrer la solidarité nationale #SIA2016", []string{"SIA2016"}, 469, "2016-03-01T03:42:31Z"),
		mkTweet("t2", "jdupont", "L'agriculture française au salon #SIA2016 avec les agriculteurs", []string{"SIA2016"}, 12, "2016-03-01T10:00:00Z"),
		mkTweet("t3", "amartin", "Débat sur l'état d'urgence au parlement", []string{"EtatDurgence"}, 88, "2015-11-20T09:00:00Z"),
		mkTweet("t4", "jdupont", "Les agriculteurs manifestent pour la solidarité", nil, 5, "2016-02-10T12:00:00Z"),
		mkTweet("t5", "amartin", "Solidarité avec les agriculteurs au salon", []string{"SIA2016", "agriculture"}, 300, "2016-03-02T08:00:00Z"),
	}
	for _, tw := range tweets {
		if err := ix.Add(tw); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func ids(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.ID
	}
	return out
}

func TestAnalyzerTokens(t *testing.T) {
	a := NewAnalyzer()
	toks := a.Tokens("L'état d'urgence: les députés votent à Paris! #EtatDurgence")
	has := func(want string) bool {
		for _, tok := range toks {
			if tok == want {
				return true
			}
		}
		return false
	}
	if !has("etat") {
		t.Errorf("elision+fold: %v", toks)
	}
	if !has("deput") { // députés → deput (stemmed)
		t.Errorf("stem: %v", toks)
	}
	if !has("#etatdurgence") {
		t.Errorf("hashtag token: %v", toks)
	}
	if has("les") || has("la") {
		t.Errorf("stopwords kept: %v", toks)
	}
}

func TestFold(t *testing.T) {
	if Fold("Détermination Où Çà œuvre") != "determination ou ca oeuvre" {
		t.Errorf("fold: %q", Fold("Détermination Où Çà œuvre"))
	}
}

func TestLightStem(t *testing.T) {
	cases := map[string]string{
		"agriculteurs":  "agriculteur",
		"nationale":     "national",
		"journaux":      "journal",
		"manifestation": "manifest",
		"votes":         "vot",
		"#sia2016":      "#sia2016", // sigil tokens untouched
	}
	for in, want := range cases {
		if got := LightStem(in); got != want {
			t.Errorf("LightStem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTermQuery(t *testing.T) {
	ix := testIndex(t)
	hits, err := ix.Search(TermQuery{Field: "text", Term: "solidarité"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("solidarité hits: %v", ids(hits))
	}
}

func TestTermQueryAnalyzesNeedle(t *testing.T) {
	ix := testIndex(t)
	// Unaccented, differently-cased query must still match.
	hits, err := ix.Search(TermQuery{Field: "text", Term: "SOLIDARITE"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Errorf("case/accent-insensitive match: %v", ids(hits))
	}
}

func TestKeywordQueryHashtag(t *testing.T) {
	ix := testIndex(t)
	hits, err := ix.Search(KeywordQuery{Field: "entities.hashtags", Value: "sia2016"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Errorf("#SIA2016 tweets: %v", ids(hits))
	}
}

func TestKeywordQueryAuthor(t *testing.T) {
	ix := testIndex(t)
	hits, err := ix.Search(KeywordQuery{Field: "user.screen_name", Value: "jdupont"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Errorf("author tweets: %v", ids(hits))
	}
}

func TestMatchQueryAnyVsAll(t *testing.T) {
	ix := testIndex(t)
	any, err := ix.Search(MatchQuery{Field: "text", Text: "solidarité agriculteurs"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := ix.Search(MatchQuery{Field: "text", Text: "solidarité agriculteurs", RequireAll: true}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(any) <= len(all) {
		t.Errorf("any=%v all=%v", ids(any), ids(all))
	}
	if len(all) != 2 { // t4 and t5 have both
		t.Errorf("all: %v", ids(all))
	}
}

func TestPhraseQuery(t *testing.T) {
	ix := testIndex(t)
	hits, err := ix.Search(PhraseQuery{Field: "text", Text: "solidarité nationale"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != "t1" {
		t.Errorf("phrase: %v", ids(hits))
	}
	// Reversed order must not match.
	hits, _ = ix.Search(PhraseQuery{Field: "text", Text: "nationale solidarité"}, SearchOptions{})
	if len(hits) != 0 {
		t.Errorf("reversed phrase matched: %v", ids(hits))
	}
}

func TestRangeQueryNumeric(t *testing.T) {
	ix := testIndex(t)
	hits, err := ix.Search(RangeQuery{
		Field: "retweet_count",
		Min:   value.NewInt(100),
		Max:   value.NewNull(),
	}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 { // 469, 300
		t.Errorf("retweets >= 100: %v", ids(hits))
	}
}

func TestRangeQueryTime(t *testing.T) {
	ix := testIndex(t)
	hits, err := ix.Search(RangeQuery{
		Field: "created_at",
		Min:   value.NewString("2016-03-01T00:00:00Z"),
		Max:   value.NewString("2016-03-01T23:59:59Z"),
	}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 { // t1, t2
		t.Errorf("March 1 tweets: %v", ids(hits))
	}
}

func TestBoolQuery(t *testing.T) {
	ix := testIndex(t)
	q := BoolQuery{
		Must: []Query{
			KeywordQuery{Field: "entities.hashtags", Value: "SIA2016"},
			TermQuery{Field: "text", Term: "solidarité"},
		},
		MustNot: []Query{
			KeywordQuery{Field: "user.screen_name", Value: "fhollande"},
		},
	}
	hits, err := ix.Search(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != "t5" {
		t.Errorf("bool: %v", ids(hits))
	}
}

func TestBoolQueryShould(t *testing.T) {
	ix := testIndex(t)
	q := BoolQuery{
		Should: []Query{
			KeywordQuery{Field: "entities.hashtags", Value: "EtatDurgence"},
			KeywordQuery{Field: "entities.hashtags", Value: "agriculture"},
		},
	}
	hits, err := ix.Search(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Errorf("should: %v", ids(hits))
	}
}

func TestBoolQueryOnlyMustNot(t *testing.T) {
	ix := testIndex(t)
	hits, err := ix.Search(BoolQuery{
		MustNot: []Query{KeywordQuery{Field: "user.screen_name", Value: "jdupont"}},
	}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Errorf("must-not only: %v", ids(hits))
	}
}

func TestSortByFieldAndLimit(t *testing.T) {
	ix := testIndex(t)
	hits, err := ix.Search(AllQuery{}, SearchOptions{SortField: "retweet_count", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].ID != "t1" || hits[1].ID != "t5" {
		t.Errorf("sort desc: %v", ids(hits))
	}
	asc, _ := ix.Search(AllQuery{}, SearchOptions{SortField: "retweet_count", SortAsc: true, Limit: 1})
	if asc[0].ID != "t4" {
		t.Errorf("sort asc: %v", ids(asc))
	}
}

func TestBM25RanksRarerTermsHigher(t *testing.T) {
	ix := NewIndex("x", Schema{"text": TextField})
	// "rare" appears in 1 doc, "common" in all.
	for i := 0; i < 10; i++ {
		d := &doc.Document{ID: fmt.Sprintf("d%d", i)}
		if i == 0 {
			d.Set("text", "common rare")
		} else {
			d.Set("text", "common filler")
		}
		ix.Add(d)
	}
	rare, _ := ix.Search(TermQuery{Field: "text", Term: "rare"}, SearchOptions{})
	common, _ := ix.Search(TermQuery{Field: "text", Term: "common"}, SearchOptions{})
	if len(rare) != 1 || len(common) != 10 {
		t.Fatalf("hits: rare=%d common=%d", len(rare), len(common))
	}
	if rare[0].Score <= common[0].Score {
		t.Errorf("rare term score %f should exceed common %f", rare[0].Score, common[0].Score)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	ix := testIndex(t)
	err := ix.Add(mkTweet("t1", "x", "dup", nil, 0, "2016-01-01T00:00:00Z"))
	if err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestUnknownFieldErrors(t *testing.T) {
	ix := testIndex(t)
	if _, err := ix.Search(TermQuery{Field: "nope", Term: "x"}, SearchOptions{}); err == nil {
		t.Error("unknown text field accepted")
	}
	if _, err := ix.Search(KeywordQuery{Field: "nope", Value: "x"}, SearchOptions{}); err == nil {
		t.Error("unknown keyword field accepted")
	}
	if _, err := ix.Search(RangeQuery{Field: "nope"}, SearchOptions{}); err == nil {
		t.Error("unknown range field accepted")
	}
}

func TestGetAndEach(t *testing.T) {
	ix := testIndex(t)
	if d := ix.Get("t3"); d == nil {
		t.Fatal("Get t3 nil")
	}
	if ix.Get("missing") != nil {
		t.Error("Get missing should be nil")
	}
	n := 0
	ix.Each(func(*doc.Document) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Each early stop: %d", n)
	}
	if ix.Count() != 5 {
		t.Errorf("Count: %d", ix.Count())
	}
}

func TestFieldTermsAndDocFreq(t *testing.T) {
	ix := testIndex(t)
	terms := ix.FieldTerms("entities.hashtags")
	if len(terms) != 3 {
		t.Errorf("hashtag terms: %v", terms)
	}
	if df := ix.DocFreq("text", "solidarit"); df != 3 {
		t.Errorf("DocFreq(solidarite) = %d", df)
	}
}

func TestTermCounts(t *testing.T) {
	ix := testIndex(t)
	counts, total := ix.TermCounts("text", []string{"t1", "t4"})
	if total == 0 {
		t.Fatal("no term counts")
	}
	if counts["solidarit"] != 2 {
		t.Errorf("solidarite count: %d (%v)", counts["solidarit"], counts)
	}
	all, allTotal := ix.TermCounts("text", nil)
	if allTotal <= total {
		t.Error("corpus total should exceed subset total")
	}
	if all["solidarit"] != 3 {
		t.Errorf("corpus solidarite: %d", all["solidarit"])
	}
}

func TestAddJSONFigure2(t *testing.T) {
	ix := NewIndex("tweets", tweetSchema())
	err := ix.AddJSON("fig2", []byte(`{
		"created_at": "2016-03-01T03:42:31Z",
		"id": 464244242167342513,
		"text": "Je suis là aujourd'hui #SIA2016",
		"user": {"screen_name": "fhollande"},
		"retweet_count": 469,
		"entities": {"hashtags": ["SIA2016"]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	hits, err := ix.Search(KeywordQuery{Field: "entities.hashtags", Value: "SIA2016"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != "fig2" {
		t.Errorf("fig2: %v", ids(hits))
	}
}

func TestConcurrentSearches(t *testing.T) {
	ix := testIndex(t)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := ix.Search(TermQuery{Field: "text", Term: "solidarité"}, SearchOptions{})
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentFirstRangeQueries runs the first range queries after a
// write to a numeric field concurrently — the readers must not sort the
// field's entries under the shared read lock. Run it under -race.
func TestConcurrentFirstRangeQueries(t *testing.T) {
	ix := testIndex(t)
	for round := 0; round < 3; round++ {
		if round > 0 {
			id := fmt.Sprintf("extra%d", round)
			if err := ix.Add(mkTweet(id, "x", "x", nil, 1000+round, "2016-04-01T00:00:00Z")); err != nil {
				t.Fatal(err)
			}
		}
		start := make(chan struct{})
		done := make(chan error, 8)
		for i := 0; i < 8; i++ {
			go func() {
				<-start
				hits, err := ix.Search(RangeQuery{Field: "retweet_count", Min: value.NewInt(100)}, SearchOptions{})
				if err == nil && len(hits) != 2+round { // 469, 300 and the extras
					err = fmt.Errorf("round %d: retweets >= 100: %v", round, ids(hits))
				}
				done <- err
			}()
		}
		close(start)
		for i := 0; i < 8; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}
