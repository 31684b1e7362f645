package core

import (
	"fmt"
	"strings"
	"testing"

	"tatooine/internal/value"
)

func TestAggregateIteratorGrouping(t *testing.T) {
	// Columns: party, votes, t.
	r := mkRows([]any{"PS", 10, "a"}, []any{"PS", 20, "b"}, []any{"LR", 5, "c"},
		[]any{"LR", 5, "c"}, []any{"PS", 30, "d"})
	items := []aggItem{
		{AggNone, 0},
		{AggCount, 2},
		{AggCountDistinct, 2},
		{AggSum, 1},
		{AggAvg, 1},
		{AggMin, 1},
		{AggMax, 1},
	}
	got, err := Materialize(newAggregate(newScan(r), []int{0}, items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("groups: %+v", got)
	}
	byParty := map[string]value.Row{}
	for _, row := range got {
		byParty[row[0].Str()] = row
	}
	ps := byParty["PS"]
	if ps[1].Int() != 3 || ps[2].Int() != 3 || ps[3].Int() != 60 || ps[4].Float() != 20 ||
		ps[5].Int() != 10 || ps[6].Int() != 30 {
		t.Errorf("PS aggregates: %+v", ps)
	}
	lr := byParty["LR"]
	if lr[1].Int() != 2 || lr[2].Int() != 1 || lr[3].Int() != 10 {
		t.Errorf("LR aggregates: %+v", lr)
	}
}

// TestAggregateGroupsKeepFraming: group values that differ only in how
// their keys would concatenate ("1:a" and "" against "1" and ":a", "as"
// and "b" against "a" and "sb") stay separate groups, so a key frame
// that did not delimit each value would merge them. COUNT DISTINCT,
// which shares the key buffer, counts 1 and 1.0 once and "1" apart.
func TestAggregateGroupsKeepFraming(t *testing.T) {
	r := mkRows(
		[]any{"1:a", "", 1}, []any{"1", ":a", 1.0}, []any{"1", ":a", "1"},
		[]any{"as", "b", 2}, []any{"a", "sb", 2}, []any{"a", "sb", 2.0}, []any{"a", "sb", 3},
		[]any{"1:a", "", 1.0})
	got, err := Materialize(newAggregate(newScan(r), []int{0, 1},
		[]aggItem{{AggNone, 0}, {AggNone, 1}, {AggCount, 2}, {AggCountDistinct, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, row := range got {
		lines = append(lines, fmt.Sprintf("%q %q %d %d", row[0].Str(), row[1].Str(), row[2].Int(), row[3].Int()))
	}
	want := []string{`"1:a" "" 2 1`, `"1" ":a" 2 2`, `"as" "b" 1 1`, `"a" "sb" 3 2`}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("groups:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

func TestAggregateGlobalGroup(t *testing.T) {
	r := mkRows([]any{1}, []any{2}, []any{3})
	got, err := Materialize(newAggregate(newScan(r), nil, []aggItem{{AggCount, 0}, {AggSum, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int() != 3 || got[0][1].Int() != 6 {
		t.Errorf("global group: %+v", got)
	}
}

func TestAggregateNullHandling(t *testing.T) {
	r := mkRows([]any{"a", 1}, []any{"a", nil}, []any{"a", 3})
	got, err := Materialize(newAggregate(newScan(r), []int{0}, []aggItem{
		{AggNone, 0},
		{AggCount, 1},
		{AggAvg, 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// COUNT and AVG skip nulls.
	if got[0][1].Int() != 2 || got[0][2].Float() != 2 {
		t.Errorf("null handling: %+v", got[0])
	}
}

// TestAggregatePlainVarMustBeGrouped: a plain head variable outside
// GROUP BY is refused at plan time — by validate, by explain and by
// execution — before any source is called.
func TestAggregatePlainVarMustBeGrouped(t *testing.T) {
	in, probe := streamFixture(t, 3, 0)
	q := mustParse(t, `
QUERY q(?v, COUNT(?k) AS ?n)
FROM <sql://seed> OUT(?k) { SELECT k FROM seed }
FROM <sql://probe> IN(?k) OUT(?k, ?v) { SELECT k, v FROM t WHERE k = ? }
GROUP BY ?k
`)
	const want = "plain head variable ?v must appear in GROUP BY"
	if _, err := q.validate(nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("validate = %v, want %q", err, want)
	}
	if _, err := in.ExplainQuery(q, ExecOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ExplainQuery = %v, want %q", err, want)
	}
	if _, err := in.ExecuteOpts(q, ExecOptions{Parallel: true}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Execute = %v, want %q", err, want)
	}
	if n := probe.calls.Load(); n != 0 {
		t.Fatalf("refused query called the probe source %d times", n)
	}
}

func TestAggregateSumNonNumericFails(t *testing.T) {
	_, err := Materialize(newAggregate(newScan(mkRows([]any{"text"})), nil, []aggItem{{AggSum, 0}}))
	if err == nil {
		t.Error("SUM over strings accepted")
	}
}

// TestGlobalAggregateOverEmptyJoin: an aggregated head without GROUP BY
// answers an empty join with one row, as SQL does — COUNT and COUNT
// DISTINCT 0, SUM, AVG, MIN and MAX NULL — while a grouped aggregate
// over the same empty join has no groups and so no rows.
func TestGlobalAggregateOverEmptyJoin(t *testing.T) {
	in := fixtureInstance(t)
	const body = `
GRAPH { ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id, ?rt)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'nosuchtag' RETURN _id, user.screen_name, retweet_count }
`
	res, err := in.Query(`QUERY q(COUNT(?t) AS ?n, COUNT(DISTINCT ?id) AS ?authors, SUM(?rt) AS ?s,
  AVG(?rt) AS ?a, MIN(?t) AS ?lo, MAX(?t) AS ?hi)` + body)
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(res.Cols, []string{"n", "authors", "s", "a", "lo", "hi"}) {
		t.Fatalf("cols: %v", res.Cols)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate over an empty join: %d rows, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0].Kind() != value.Int || row[0].Int() != 0 || row[1].Kind() != value.Int || row[1].Int() != 0 {
		t.Errorf("COUNT, COUNT DISTINCT = %v, %v, want 0, 0", row[0], row[1])
	}
	for i := 2; i < len(row); i++ {
		if !row[i].IsNull() {
			t.Errorf("%s = %v, want NULL", res.Cols[i], row[i])
		}
	}

	res, err = in.Query(`QUERY q(?id, COUNT(?t) AS ?n)` + body + `GROUP BY ?id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("grouped aggregate over an empty join: %+v, want no rows", res.Rows)
	}
}

// TestMostProlificAuthors reproduces the paper's §1 motivating query:
// "for a given hashtag and each political affiliation, find the most
// prolific tweet authors of that affiliation having used that hashtag,
// and their Facebook accounts."
func TestMostProlificAuthors(t *testing.T) {
	in := fixtureInstance(t)
	res, err := in.Query(`
QUERY prolific(?cur, ?id, ?fb, COUNT(?t) AS ?n)
GRAPH { ?x :memberOf ?p . ?p :currentOf ?cur .
        ?x :twitterAccount ?id . ?x :facebookAccount ?fb }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'economie' RETURN _id, user.screen_name }
GROUP BY ?cur, ?id, ?fb
ORDER BY ?n DESC
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 4 || res.Cols[3] != "n" {
		t.Fatalf("cols: %v", res.Cols)
	}
	// fhollande has 1 economie tweet (t4), jdupont 1 (t5); amartin has
	// no facebook account so is excluded.
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row[3].Int() != 1 {
			t.Errorf("count: %+v", row)
		}
		if row[2].IsNull() {
			t.Errorf("facebook account missing: %+v", row)
		}
	}
}

func TestParseAggregateHead(t *testing.T) {
	q := MustParseCMQ(`
QUERY q(?cur, COUNT(?t) AS ?n, COUNT(DISTINCT ?id) AS ?authors, SUM(?rt) AS ?rts)
GRAPH { ?x :p ?cur . ?x :q ?t . ?x :r ?id . ?x :s ?rt }
GROUP BY ?cur
ORDER BY ?n DESC
`)
	if len(q.HeadItems) != 4 {
		t.Fatalf("items: %+v", q.HeadItems)
	}
	if q.HeadItems[0].Agg != AggNone || q.HeadItems[0].Var != "cur" {
		t.Errorf("item0: %+v", q.HeadItems[0])
	}
	if q.HeadItems[1].Agg != AggCount || q.HeadItems[1].Alias != "n" {
		t.Errorf("item1: %+v", q.HeadItems[1])
	}
	if q.HeadItems[2].Agg != AggCountDistinct || q.HeadItems[2].Var != "id" {
		t.Errorf("item2: %+v", q.HeadItems[2])
	}
	if q.HeadItems[3].Agg != AggSum {
		t.Errorf("item3: %+v", q.HeadItems[3])
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "cur" {
		t.Errorf("groupBy: %v", q.GroupBy)
	}
	if q.OrderBy != "n" || !q.OrderDesc {
		t.Errorf("order: %v %v", q.OrderBy, q.OrderDesc)
	}
}

func TestParseAggregateErrors(t *testing.T) {
	cases := []string{
		`QUERY q(MEDIAN(?x)) GRAPH { ?a :p ?x }`,                   // unknown aggregate
		`QUERY q(SUM(DISTINCT ?x)) GRAPH { ?a :p ?x }`,             // DISTINCT non-COUNT
		`QUERY q(COUNT(?x) AS ) GRAPH { ?a :p ?x }`,                // empty alias
		`QUERY q(?a) GROUP BY ?a GRAPH { ?a :p ?x }`,               // GROUP BY without aggregate
		`QUERY q(COUNT(?zz) AS ?n) GRAPH { ?a :p ?x }`,             // agg var not produced
		`QUERY q(COUNT(?x) AS ?n) GROUP BY ?zz GRAPH { ?a :p ?x }`, // group var not produced
	}
	for _, text := range cases {
		q, _, err := ParseCMQ(text)
		if err == nil {
			_, err = q.validate(nil)
		}
		if err == nil {
			t.Errorf("expected error for %q", text)
		}
	}
}

func TestAggregateHeadStringRendering(t *testing.T) {
	items := []HeadItem{
		{Var: "cur"},
		{Var: "t", Agg: AggCount, Alias: "n"},
		{Var: "id", Agg: AggCountDistinct},
	}
	strs := []string{"?cur", "COUNT(?t) AS ?n", "COUNT(DISTINCT ?id)"}
	for i, it := range items {
		if it.String() != strs[i] {
			t.Errorf("String: %q want %q", it.String(), strs[i])
		}
	}
	if items[2].Name() != "count_distinct_id" {
		t.Errorf("default name: %q", items[2].Name())
	}
}

func TestOrderByAggregateAlias(t *testing.T) {
	in := fixtureInstance(t)
	res, err := in.Query(`
QUERY q(?id, COUNT(?t) AS ?n)
GRAPH { ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? RETURN _id, user.screen_name }
GROUP BY ?id
ORDER BY ?n DESC
LIMIT 1
`)
	if err != nil {
		t.Fatal(err)
	}
	// fhollande and jdupont both have 2 tweets; amartin 1. Top must
	// have count 2.
	if len(res.Rows) != 1 || res.Rows[0][1].Int() != 2 {
		t.Errorf("top author: %+v", res.Rows)
	}
	if !strings.Contains(res.Cols[1], "n") {
		t.Errorf("cols: %v", res.Cols)
	}
}
