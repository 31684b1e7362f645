package fulltext

import (
	"fmt"
	"math/rand"
	"strings"
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

// run parses and executes a SEARCH statement against ix.
func run(t testing.TB, ix *Index, text string, params ...value.Value) ([]value.Row, error) {
	t.Helper()
	q, err := ParseTextQuery(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return execute(q, ix, params)
}

// execute answers q for one parameter tuple: a batch of one.
func execute(q *TextQuery, ix *Index, params []value.Value) ([]value.Row, error) {
	rows, err := q.ExecuteBatch(ix, []value.Row{params})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// searchIDs runs a statement returning _id first and lists the IDs.
func searchIDs(t testing.TB, ix *Index, text string, params ...value.Value) []string {
	t.Helper()
	rows, err := run(t, ix, text, params...)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].Str()
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

// refFold is Fold as it was before its fast path, rebuilding every
// string: the reference Fold must agree with.
func refFold(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if folded, ok := foldMap[r]; ok {
			b.WriteString(folded)
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// TestFoldMatchesReference: every folded rune, in both cases, alone and
// in mixed strings, and text with invalid UTF-8, fold as the reference
// folds them; text that is already folded, ASCII or not, costs no
// allocation.
func TestFoldMatchesReference(t *testing.T) {
	var cases []string
	for r, folded := range foldMap {
		cases = append(cases, string(r), strings.ToUpper(string(r)), "x"+string(r)+"Y", folded+string(r))
	}
	cases = append(cases, "", "headofstate", "HeadOfState", "œuvre", "Œuvre", "Æther", "ñandú", "Ÿ",
		"straße", "ÉCOLE", "日本Noël", "日本noel", "a\xffb", "\xc3", "É\xff", "\xef\xbf\xbd", "İstanbul",
		"K-kelvin", "cœur de Paris, naïveté, garçon", "#SIA2016 @fhollande")
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("aZé É œŒæÆñÑÿŸ\uFFFD日İK#")
	for i := 0; i < 2000; i++ {
		r := make([]rune, rng.Intn(8))
		for j := range r {
			r[j] = alphabet[rng.Intn(len(alphabet))]
		}
		cases = append(cases, string(r))
	}
	for _, c := range cases {
		if got, want := Fold(c), refFold(c); got != want {
			t.Errorf("Fold(%q) = %q, want %q", c, got, want)
		}
	}
	for _, s := range []string{"headofstate", "sia2016 #tag", "日本noel", "straße"} {
		if n := testing.AllocsPerRun(100, func() { _ = Fold(s) }); n != 0 {
			t.Errorf("Fold(%q): %v allocations, want 0", s, n)
		}
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
	if got := searchIDs(t, ix, `SEARCH tweets WHERE text CONTAINS 'solidarité' RETURN _id`); len(got) != 3 {
		t.Fatalf("solidarité hits: %v", got)
	}
}

func TestTermQueryAnalyzesNeedle(t *testing.T) {
	ix := testIndex(t)
	// Unaccented, differently-cased query must still match.
	if got := searchIDs(t, ix, `SEARCH tweets WHERE text CONTAINS 'SOLIDARITE' RETURN _id`); len(got) != 3 {
		t.Errorf("case/accent-insensitive match: %v", got)
	}
}

func TestKeywordQueryHashtag(t *testing.T) {
	ix := testIndex(t)
	if got := searchIDs(t, ix, `SEARCH tweets WHERE entities.hashtags = 'sia2016' RETURN _id`); len(got) != 3 {
		t.Errorf("#SIA2016 tweets: %v", got)
	}
}

func TestKeywordQueryAuthor(t *testing.T) {
	ix := testIndex(t)
	if got := searchIDs(t, ix, `SEARCH tweets WHERE user.screen_name = 'jdupont' RETURN _id`); len(got) != 2 {
		t.Errorf("author tweets: %v", got)
	}
}

// TestMatchQueryAnyVsAll: CONTAINS requires every term, so it matches
// fewer documents than either term alone would together.
func TestMatchQueryAnyVsAll(t *testing.T) {
	ix := testIndex(t)
	any := map[string]bool{}
	for _, term := range []string{"solidarité", "agriculteurs"} {
		for _, id := range searchIDs(t, ix, `SEARCH tweets WHERE text CONTAINS '`+term+`' RETURN _id`) {
			any[id] = true
		}
	}
	all := searchIDs(t, ix, `SEARCH tweets WHERE text CONTAINS 'solidarité agriculteurs' RETURN _id`)
	if len(any) <= len(all) {
		t.Errorf("any=%v all=%v", any, all)
	}
	if len(all) != 2 { // t4 and t5 have both
		t.Errorf("all: %v", all)
	}
}

func TestPhraseQuery(t *testing.T) {
	ix := testIndex(t)
	if got := searchIDs(t, ix, `SEARCH tweets WHERE text PHRASE 'solidarité nationale' RETURN _id`); len(got) != 1 || got[0] != "t1" {
		t.Errorf("phrase: %v", got)
	}
	// Reversed order must not match.
	if got := searchIDs(t, ix, `SEARCH tweets WHERE text PHRASE 'nationale solidarité' RETURN _id`); len(got) != 0 {
		t.Errorf("reversed phrase matched: %v", got)
	}
}

func TestRangeQueryNumeric(t *testing.T) {
	ix := testIndex(t)
	if got := searchIDs(t, ix, `SEARCH tweets WHERE retweet_count >= 100 RETURN _id`); len(got) != 2 { // 469, 300
		t.Errorf("retweets >= 100: %v", got)
	}
}

func TestRangeQueryTime(t *testing.T) {
	ix := testIndex(t)
	got := searchIDs(t, ix, `SEARCH tweets WHERE created_at BETWEEN '2016-03-01T00:00:00Z' AND '2016-03-01T23:59:59Z' RETURN _id`)
	if len(got) != 2 { // t1, t2
		t.Errorf("March 1 tweets: %v", got)
	}
}

// TestEqualityOnNumericAndTimeFields: '=' on a numeric or time field is
// the point range, the same answer as BETWEEN v AND v; on a text field
// it matches nothing.
func TestEqualityOnNumericAndTimeFields(t *testing.T) {
	ix := testIndex(t)
	for _, c := range []struct{ where, want string }{
		{"retweet_count = 469", "[t1]"},
		{"retweet_count BETWEEN 469 AND 469", "[t1]"},
		{"retweet_count = ?", "[t5]"},
		{"created_at = 2016-03-01T03:42:31Z", "[t1]"},
		{"created_at = '2016-03-02T08:00:00Z'", "[t5]"},
		{"retweet_count = 470", "[]"},
		{"text = 'solidarité'", "[]"},
	} {
		got := searchIDs(t, ix, "SEARCH tweets WHERE "+c.where+" RETURN _id", value.NewInt(300))
		if fmt.Sprint(got) != c.want {
			t.Errorf("%s: %v, want %s", c.where, got, c.want)
		}
	}
}

// TestUnparsableRangeBoundMatchesNothing: a range bound that is neither
// a number nor a time, literal or bound to a parameter (NULL included),
// matches no document.
func TestUnparsableRangeBoundMatchesNothing(t *testing.T) {
	ix := testIndex(t)
	for _, c := range []struct {
		where string
		param value.Value
	}{
		{"retweet_count >= 'abc'", value.NewNull()},
		{"retweet_count <= 'abc'", value.NewNull()},
		{"retweet_count BETWEEN 1 AND 'abc'", value.NewNull()},
		{"retweet_count >= ?", value.NewString("SIA2016")},
		{"created_at <= ?", value.NewString("SIA2016")},
		{"retweet_count >= ?", value.NewNull()},
		{"retweet_count = ?", value.NewString("SIA2016")},
	} {
		if got := searchIDs(t, ix, "SEARCH tweets WHERE "+c.where+" RETURN _id", c.param); len(got) != 0 {
			t.Errorf("%s (? = %v): %v, want none", c.where, c.param, got)
		}
	}
}

// TestBoolQuery: the conditions of one statement are a conjunction.
func TestBoolQuery(t *testing.T) {
	ix := testIndex(t)
	got := searchIDs(t, ix, `SEARCH tweets WHERE entities.hashtags = 'SIA2016'
AND text CONTAINS 'solidarité' AND user.screen_name = 'amartin' RETURN _id`)
	if len(got) != 1 || got[0] != "t5" {
		t.Errorf("conjunction: %v", got)
	}
}

func TestSortByFieldAndLimit(t *testing.T) {
	ix := testIndex(t)
	if got := searchIDs(t, ix, `SEARCH tweets RETURN _id ORDER BY retweet_count DESC LIMIT 2`); fmt.Sprint(got) != "[t1 t5]" {
		t.Errorf("sort desc: %v", got)
	}
	if got := searchIDs(t, ix, `SEARCH tweets RETURN _id ORDER BY retweet_count LIMIT 1`); fmt.Sprint(got) != "[t4]" {
		t.Errorf("sort asc: %v", got)
	}
	if got := searchIDs(t, ix, `SEARCH tweets RETURN _id ORDER BY created_at DESC`); fmt.Sprint(got) != "[t5 t2 t1 t4 t3]" {
		t.Errorf("sort by time desc: %v", got)
	}
}

// TestSortByKeywordField: a keyword field sorts by its first value
// (ties keep index order); an ORDER BY field outside the schema is an
// error.
func TestSortByKeywordField(t *testing.T) {
	ix := testIndex(t)
	if got := searchIDs(t, ix, `SEARCH tweets RETURN _id ORDER BY user.screen_name ASC`); fmt.Sprint(got) != "[t3 t5 t1 t2 t4]" {
		t.Errorf("screen name asc: %v", got)
	}
	if got := searchIDs(t, ix, `SEARCH tweets RETURN _id ORDER BY user.screen_name DESC`); fmt.Sprint(got) != "[t2 t4 t1 t3 t5]" {
		t.Errorf("screen name desc: %v", got)
	}
	// t4 has no hashtag and sorts lowest.
	if got := searchIDs(t, ix, `SEARCH tweets RETURN _id ORDER BY entities.hashtags`); fmt.Sprint(got) != "[t4 t3 t1 t2 t5]" {
		t.Errorf("hashtag asc: %v", got)
	}
	if _, err := run(t, ix, `SEARCH tweets RETURN _id ORDER BY nosuch`); err == nil {
		t.Error("unknown ORDER BY field accepted")
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
	rare, _ := run(t, ix, `SEARCH x WHERE text CONTAINS 'rare' RETURN _id, _score`)
	common, _ := run(t, ix, `SEARCH x WHERE text CONTAINS 'common' RETURN _id, _score`)
	if len(rare) != 1 || len(common) != 10 {
		t.Fatalf("hits: rare=%d common=%d", len(rare), len(common))
	}
	if rare[0][1].Float() <= common[0][1].Float() {
		t.Errorf("rare term score %f should exceed common %f", rare[0][1].Float(), common[0][1].Float())
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
	for _, where := range []string{"nope CONTAINS 'x'", "nope = 'x'", "nope >= 1", "nope PHRASE 'x y'"} {
		if _, err := run(t, ix, "SEARCH tweets WHERE "+where+" RETURN _id"); err == nil {
			t.Errorf("%s: unknown field accepted", where)
		}
	}
}

func TestGetAndEach(t *testing.T) {
	ix := testIndex(t)
	var ids []string
	ix.Each(func(d *doc.Document) bool { ids = append(ids, d.ID); return true })
	if fmt.Sprint(ids) != "[t1 t2 t3 t4 t5]" {
		t.Errorf("Each visits %v", ids)
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

func TestAddJSONFigure2(t *testing.T) {
	ix := NewIndex("tweets", tweetSchema())
	err := ix.Add(&doc.Document{ID: "fig2", Fields: map[string]any{
		"created_at":    "2016-03-01T03:42:31Z",
		"id":            int64(464244242167342513),
		"text":          "Je suis là aujourd'hui #SIA2016",
		"user":          map[string]any{"screen_name": "fhollande"},
		"retweet_count": 469,
		"entities":      map[string]any{"hashtags": []any{"SIA2016"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{"entities.hashtags = 'SIA2016'", "user.screen_name = 'fhollande'", "retweet_count = 469"} {
		if got := searchIDs(t, ix, "SEARCH tweets WHERE "+where+" RETURN _id"); len(got) != 1 || got[0] != "fig2" {
			t.Errorf("%s: %v", where, got)
		}
	}
}

func TestConcurrentSearches(t *testing.T) {
	ix := testIndex(t)
	q, err := ParseTextQuery(`SEARCH tweets WHERE text CONTAINS 'solidarité' RETURN _id`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := execute(q, ix, nil)
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
	q, err := ParseTextQuery(`SEARCH tweets WHERE retweet_count >= 100 RETURN _id`)
	if err != nil {
		t.Fatal(err)
	}
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
				rows, err := execute(q, ix, nil)
				if err == nil && len(rows) != 2+round { // 469, 300 and the extras
					err = fmt.Errorf("round %d: retweets >= 100: %v", round, rows)
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

// TestConcurrentAddAndBatch runs Add beside ExecuteBatch, which reads
// the columns Add grows and builds a bitmap of the fixed condition
// over the documents there are. Each answer must be
// consistent: right author, score 2, IDs ascending. Run it under -race.
func TestConcurrentAddAndBatch(t *testing.T) {
	ix := testIndex(t)
	q, err := ParseTextQuery(`SEARCH tweets WHERE entities.hashtags = 'SIA2016' AND user.screen_name = ? RETURN _id, user.screen_name, _score`)
	if err != nil {
		t.Fatal(err)
	}
	batch := []value.Row{{value.NewString("jdupont")}, {value.NewString("amartin")}, {value.NewString("nobody")}}
	check := func() ([]int, error) {
		res, err := q.ExecuteBatch(ix, batch)
		if err != nil {
			return nil, err
		}
		counts := make([]int, len(res))
		for ti, rows := range res {
			for k, row := range rows {
				if row[1].Str() != batch[ti][0].Str() || row[2].Float() != 2 ||
					k > 0 && rows[k-1][0].Str() >= row[0].Str() {
					return nil, fmt.Errorf("tuple %d: rows %v", ti, rows)
				}
			}
			counts[ti] = len(rows)
		}
		return counts, nil
	}
	const adds = 200
	stop := make(chan struct{})
	errs := make(chan error, 5)
	go func() {
		defer close(stop)
		for i := 0; i < adds; i++ {
			// IDs descend, so each new document sorts before the last.
			d := mkTweet(fmt.Sprintf("x%04d", adds-i), []string{"jdupont", "amartin"}[i%2], "salon", []string{"SIA2016"}, i, "2016-03-05T00:00:00Z")
			if err := ix.Add(d); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for g := 0; g < 4; g++ {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if _, err := check(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	counts, err := check()
	if err != nil || counts[0] != 1+adds/2 || counts[1] != 1+adds/2 || counts[2] != 0 {
		t.Fatalf("after the adds: counts %v, err %v", counts, err)
	}
}

// BenchmarkSearchBatch answers one bind-join batch: 300 screen names
// against one fixed hashtag, over 5,000 documents shaped like the
// generated tweets (authors drawn towards the first, 60 % under that
// hashtag, 8–16 words of text).
func BenchmarkSearchBatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ix := NewIndex("tweets", tweetSchema())
	names := make([]value.Row, 300)
	for i := range names {
		names[i] = value.Row{value.NewString(fmt.Sprintf("pol%03d", i))}
	}
	for i := 0; i < 5000; i++ {
		author := names[int(300*r.Float64()*r.Float64())][0].Str()
		tag := diffTags[r.Intn(len(diffTags))]
		if r.Float64() < 0.6 {
			tag = "EtatDurgence"
		}
		d := mkTweet(fmt.Sprintf("tw%08d", i+1), author, randomText(r, 8+r.Intn(9)), []string{tag},
			r.Intn(400), diffTimes[r.Intn(len(diffTimes))])
		if err := ix.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	q, err := ParseTextQuery(`SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'EtatDurgence' RETURN _id, user.screen_name`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ExecuteBatch(ix, names); err != nil {
			b.Fatal(err)
		}
	}
}
