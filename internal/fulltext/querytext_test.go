package fulltext

import (
	"testing"

	"tatooine/internal/value"
)

func TestParseTextQueryFull(t *testing.T) {
	q, err := ParseTextQuery(`SEARCH tweets
WHERE entities.hashtags = ? AND text CONTAINS 'solidarité'
      AND retweet_count >= 100 AND created_at BETWEEN 2016-01-01T00:00:00Z AND 2016-12-31T00:00:00Z
      AND favorite_count <= 1000 AND text PHRASE 'solidarité nationale'
RETURN _id, user.screen_name, _score
ORDER BY retweet_count DESC LIMIT 50`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Index != "tweets" || len(q.Conds) != 6 || q.NumParams != 1 {
		t.Fatalf("parsed: %+v", q)
	}
	ops := []CondOp{CondEq, CondContains, CondGe, CondBetween, CondLe, CondPhrase}
	for i, want := range ops {
		if q.Conds[i].Op != want {
			t.Errorf("cond %d op %v, want %v", i, q.Conds[i].Op, want)
		}
	}
	if q.Conds[0].Param != 0 || q.Conds[1].Param != -1 {
		t.Errorf("params: %+v", q.Conds[:2])
	}
	if len(q.Returns) != 3 || q.Returns[2] != "_score" {
		t.Errorf("returns: %v", q.Returns)
	}
	if q.OrderBy != "retweet_count" || !q.Desc || q.Limit != 50 {
		t.Errorf("order/limit: %+v", q)
	}
}

func TestParseTextQueryNoWhere(t *testing.T) {
	q, err := ParseTextQuery("SEARCH tweets RETURN _id LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Conds) != 0 || q.Limit != 3 {
		t.Errorf("parsed: %+v", q)
	}
}

func TestParseTextQueryErrors(t *testing.T) {
	cases := []string{
		"",
		"FIND tweets RETURN _id",
		"SEARCH tweets",
		"SEARCH tweets WHERE RETURN _id",
		"SEARCH tweets WHERE f = RETURN _id",
		"SEARCH tweets WHERE f LIKE 'x' RETURN _id",
		"SEARCH tweets WHERE f BETWEEN 1 RETURN _id",
		"SEARCH tweets RETURN _id ORDER retweets",
		"SEARCH tweets RETURN _id LIMIT xx",
		"SEARCH tweets RETURN _id trailing",
		"SEARCH tweets WHERE f = 'unterminated RETURN _id",
	}
	for _, c := range cases {
		if _, err := ParseTextQuery(c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestTextQueryExecuteAllCondKinds(t *testing.T) {
	ix := testIndex(t)
	q, err := ParseTextQuery(`SEARCH tweets
WHERE text CONTAINS 'agriculteurs' AND retweet_count BETWEEN 1 AND 100
RETURN _id, retweet_count ORDER BY retweet_count`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := execute(q, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 2 { // t2 (12), t4 (5) — ascending
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0][1].Int() != 5 || rows[1][1].Int() != 12 {
		t.Errorf("ascending order: %+v", rows)
	}
}

func TestTextQueryExecuteScoreAndMissingField(t *testing.T) {
	ix := testIndex(t)
	q, err := ParseTextQuery(`SEARCH tweets WHERE text CONTAINS 'solidarité' RETURN _score, user.missing`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := execute(q, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if rows[0][0].Kind() != value.Float || rows[0][0].Float() <= 0 {
		t.Errorf("score: %v", rows[0][0])
	}
	if !rows[0][1].IsNull() {
		t.Errorf("missing field should be NULL: %v", rows[0][1])
	}
}

func TestTextQueryMissingParams(t *testing.T) {
	ix := testIndex(t)
	q, _ := ParseTextQuery(`SEARCH tweets WHERE entities.hashtags = ? RETURN _id`)
	if _, err := execute(q, ix, nil); err == nil {
		t.Error("missing params accepted")
	}
}

func TestTextQueryPhraseViaText(t *testing.T) {
	ix := testIndex(t)
	q, err := ParseTextQuery(`SEARCH tweets WHERE text PHRASE 'solidarité nationale' RETURN _id`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := execute(q, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Str() != "t1" {
		t.Errorf("phrase rows: %+v", rows)
	}
}

// TestIsStopword: the analyzer drops stop words whatever their case.
func TestIsStopword(t *testing.T) {
	toks := NewAnalyzer().Tokens("les THE agriculture")
	if len(toks) != 1 || toks[0] != LightStem("agriculture") {
		t.Errorf("tokens: %v", toks)
	}
}

// Property: analysis is idempotent — re-analyzing the analyzed tokens
// yields the same tokens (stemming reaches a fixpoint for our corpus
// vocabulary; guard against oscillation regressions).
func TestAnalyzerIdempotentOnVocab(t *testing.T) {
	a := NewAnalyzer()
	vocab := []string{
		"solidarité nationale", "les agriculteurs manifestent",
		"l'état d'urgence", "perquisitions excès libertés",
		"#SIA2016 au salon", "chômage économie croissance",
	}
	for _, text := range vocab {
		once := a.Tokens(text)
		for _, tok := range once {
			again := a.Tokens(tok)
			if len(again) > 1 {
				t.Errorf("token %q re-split: %v", tok, again)
				continue
			}
			if len(again) == 1 && again[0] != tok && LightStem(again[0]) != tok {
				// One extra stemming round is tolerated only if stable after.
				third := a.Tokens(again[0])
				if len(third) != 1 || third[0] != again[0] {
					t.Errorf("token %q unstable: %v -> %v", tok, again, third)
				}
			}
		}
	}
}

// FuzzParseTextQuery: any input either fails to parse or yields a query
// whose ExecuteBatch on testIndex, over 1–8 parameter tuples picked by
// the input, answers each tuple exactly as the map-based reference
// evaluator does (rows, order, scores bit for bit, and whether it errs);
// none of it panics.
func FuzzParseTextQuery(f *testing.F) {
	for _, seed := range []string{
		`SEARCH tweets
WHERE entities.hashtags = ? AND text CONTAINS 'solidarité'
      AND retweet_count >= 100 AND created_at BETWEEN 2016-01-01T00:00:00Z AND 2016-12-31T00:00:00Z
      AND favorite_count <= 1000 AND text PHRASE 'solidarité nationale'
RETURN _id, user.screen_name, _score
ORDER BY retweet_count DESC LIMIT 50`,
		"SEARCH tweets RETURN _id LIMIT 3",
		"SEARCH tweets WHERE text CONTAINS 'agriculteurs' AND retweet_count BETWEEN 1 AND 100 RETURN _id, retweet_count ORDER BY retweet_count",
		"SEARCH tweets WHERE text CONTAINS 'solidarité' RETURN _score, user.missing",
		"SEARCH tweets WHERE retweet_count BETWEEN ? AND ? RETURN _id",
		"SEARCH tweets WHERE f BETWEEN 1 RETURN _id",
		"SEARCH tweets WHERE f = 'unterminated RETURN _id",
		"SEARCH tweets RETURN _id LIMIT xx",
		"SEARCH tweets WHERE retweet_count = ? AND created_at >= 'abc' RETURN _id, _score ORDER BY user.screen_name DESC",
		"SEARCH tweets WHERE text PHRASE 'salon agriculteurs' RETURN _score, _id ORDER BY nosuch",
		"SEARCH tweets WHERE entities.hashtags = 'SIA2016' AND user.screen_name = ? RETURN _id, user.screen_name, _score",
		"SEARCH tweets WHERE text CONTAINS 'solidarité' AND user.screen_name = ? RETURN _score, _id, text",
		"SEARCH tweets WHERE text CONTAINS ? AND entities.hashtags = 'SIA2016' AND retweet_count >= 10 RETURN _id, _score",
	} {
		f.Add(seed)
	}
	pool := []value.Value{
		value.NewString("SIA2016"), value.NewString("jdupont"), value.NewString("solidarité agriculteurs"),
		value.NewInt(469), value.NewString("2016-03-01T03:42:31Z"), value.NewString("amartin"),
		value.NewNull(), value.NewString("salon"), value.NewFloat(88), value.NewString("EtatDurgence"),
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := ParseTextQuery(input)
		if err != nil {
			return
		}
		batch := make([]value.Row, 1+len(input)%8)
		for i := range batch {
			batch[i] = make(value.Row, q.NumParams)
			for k := range batch[i] {
				batch[i][k] = pool[(len(input)+3*i+7*k)%len(pool)]
			}
		}
		if diff := matchesReference(testIndex(t), q, batch, false); diff != "" {
			t.Fatalf("%q: %s", input, diff)
		}
	})
}
