package source_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"tatooine/internal/digest"
	"tatooine/internal/doc"
	"tatooine/internal/federation"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
	"tatooine/internal/xmlstore"
)

// spy counts the calls that reach a source. Unwrap keeps the source's
// digest reachable; batchSpy keeps a BatchProber one.
type spy struct {
	source.DataSource
	calls *atomic.Int64
}

func (s spy) Unwrap() source.DataSource { return s.DataSource }

func (s spy) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	s.calls.Add(1)
	return s.DataSource.Execute(q, params)
}

type batchSpy struct{ spy }

func (s batchSpy) ExecuteBatch(q source.SubQuery, sets []value.Row) ([]*source.Result, error) {
	s.calls.Add(1)
	return s.DataSource.(source.BatchProber).ExecuteBatch(q, sets)
}

// watch wraps s in a spy with the same batch capability.
func watch(s source.DataSource, calls *atomic.Int64) source.DataSource {
	if _, ok := s.(source.BatchProber); ok {
		return batchSpy{spy{s, calls}}
	}
	return spy{s, calls}
}

// serve puts s behind federation.Handler and dials it.
func serve(t *testing.T, s source.DataSource) *federation.Client {
	t.Helper()
	srv := httptest.NewServer(federation.Handler(s))
	t.Cleanup(srv.Close)
	c, err := federation.Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func conformanceDoc(t *testing.T) *source.DocSource {
	t.Helper()
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text": fulltext.TextField,
		"user": fulltext.KeywordField,
	})
	for i, txt := range []string{"economie en hausse", "economie en baisse", "economie et sport", "culture et sport"} {
		if err := ix.Add(&doc.Document{ID: fmt.Sprintf("d%d", i), Fields: map[string]any{"user": fmt.Sprintf("u%d", i%3), "text": txt}}); err != nil {
			t.Fatal(err)
		}
	}
	return source.NewDocSource("solr://tweets", ix)
}

// conformanceDocFields holds documents with a numeric and a time field,
// which '=' matches by value, not by spelling.
func conformanceDocFields(t *testing.T) *source.DocSource {
	t.Helper()
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"retweet_count": fulltext.NumericField,
		"created_at":    fulltext.TimeField,
	})
	for i, f := range []map[string]any{
		{"retweet_count": 469, "created_at": "2016-03-01T03:42:31Z"},
		{"retweet_count": 469.0, "created_at": "2016-03-01T04:42:31+01:00"},
		{"retweet_count": 12, "created_at": "2016-03-02T00:00:00Z"},
	} {
		if err := ix.Add(&doc.Document{ID: fmt.Sprintf("d%d", i), Fields: f}); err != nil {
			t.Fatal(err)
		}
	}
	return source.NewDocSource("solr://tweets", ix)
}

// conformanceSignedZero holds a FLOAT column with 0 and −0, which
// value.Equal (and so `f = ?`) does not tell apart.
func conformanceSignedZero(t *testing.T) *source.RelSource {
	t.Helper()
	db := relstore.NewDatabase("z")
	tbl, err := db.CreateTable(relstore.Schema{Name: "z", Columns: []relstore.Column{
		{Name: "f", Type: value.Float}, {Name: "name", Type: value.String}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []value.Row{
		{value.NewFloat(0), value.NewString("zero")},
		{value.NewFloat(math.Copysign(0, -1)), value.NewString("minus zero")},
		{value.NewFloat(1), value.NewString("one")},
	} {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return source.NewRelSource("sql://z", db)
}

func conformanceXML(t *testing.T) *source.XMLSource {
	t.Helper()
	store := xmlstore.NewStore("speeches")
	if err := store.Add("d1", []byte(`<speeches>
<speech speaker="A"><topic>agriculture</topic></speech>
<speech speaker="B"><topic>economie</topic></speech>
<speech speaker="B"><topic>culture</topic></speech>
</speeches>`)); err != nil {
		t.Fatal(err)
	}
	return source.NewXMLSource("xml://sp", store)
}

var conformancePrefixes = map[string]string{"": "http://t.example/"}

func conformanceRDF() *source.RDFSource {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:p1 :account "alice" ; :party :left .
:p2 :account "bob" ; :party :right .
:p3 :account "carol" ; :party :left .
`))
	return source.NewRDFSource("rdf://g", g).WithPrefixes(conformancePrefixes)
}

func strs(ss ...string) []value.Row {
	out := make([]value.Row, len(ss))
	for i, s := range ss {
		out[i] = value.Row{value.NewString(s)}
	}
	return out
}

// conformanceCase is one source under the conformance contract.
type conformanceCase struct {
	name string
	src  source.DataSource
	// ref answers the per-tuple reference Execute; src when nil. A cache
	// or a remote refers to the source behind it, so the reference is not
	// served from the state the batch just filled.
	ref   source.DataSource
	calls *atomic.Int64 // calls reaching the data behind src
	q     source.SubQuery
	sets  []value.Row
	// prunes says the source's digest maps a parameter to a value set,
	// so the digest check below is not vacuous.
	prunes bool
	// misprunes names a known digest fault that excludes bindings which
	// return rows; the case then requires that it still does, so the
	// fix of that fault has to drop the field and check soundness.
	misprunes string
}

func conformanceCases(t *testing.T) []conformanceCase {
	sql := func(text string, inVars ...string) source.SubQuery {
		return source.SubQuery{Language: source.LangSQL, Text: text, InVars: inVars}
	}
	pushdown := sql("SELECT k, v FROM t WHERE k = ? AND v >= 1", "k")
	keys := strs("a", "b", "nope", "a", "c")
	search := source.SubQuery{Language: source.LangSearch,
		Text: "SEARCH tweets WHERE user = ? AND text CONTAINS 'economie' RETURN _id, user", InVars: []string{"user"}}
	xpath := source.SubQuery{Language: source.LangXPath,
		Text: "XPATH /speeches/speech[@speaker=?] RETURN _id, topic", InVars: []string{"n"}}

	var cases []conformanceCase
	add := func(c conformanceCase) {
		if c.calls == nil {
			c.calls = new(atomic.Int64)
			c.src = watch(c.src, c.calls)
		}
		cases = append(cases, c)
	}
	add(conformanceCase{name: "rel/in-list", src: relFixture(t), q: pushdown, sets: keys, prunes: true})
	add(conformanceCase{name: "rel/cross-product", src: relFixture(t),
		q: sql("SELECT grp FROM t WHERE k = ? AND v = ?", "k", "v"), prunes: true,
		sets: []value.Row{{value.NewString("a"), value.NewInt(1)}, {value.NewString("b"), value.NewInt(3)},
			{value.NewString("c"), value.NewInt(9)}}})
	add(conformanceCase{name: "rel/scan", src: relFixture(t), q: sql("SELECT k, v FROM t"), sets: []value.Row{{}}})
	add(conformanceCase{name: "rel/refused-limit", src: relFixture(t),
		q: sql("SELECT k, v FROM t WHERE k = ? ORDER BY v LIMIT 1", "k"), sets: keys, prunes: true})
	add(conformanceCase{name: "rel/refused-distinct", src: relFixture(t),
		q: sql("SELECT DISTINCT k FROM t WHERE k = ?", "k"), sets: keys, prunes: true})
	add(conformanceCase{name: "rel/refused-range", src: relFixture(t),
		q: sql("SELECT k FROM t WHERE v >= ?", "v"), sets: []value.Row{{value.NewInt(2)}, {value.NewInt(9)}}})
	add(conformanceCase{name: "rel/signed-zero", src: conformanceSignedZero(t), prunes: true,
		q:    sql("SELECT name, f FROM z WHERE f = ?", "f"),
		sets: []value.Row{{value.NewFloat(0)}, {value.NewFloat(math.Copysign(0, -1))}, {value.NewInt(0)}, {value.NewFloat(1)}}})
	add(conformanceCase{name: "doc", src: conformanceDoc(t), q: search, sets: strs("u0", "u1", "u2", "u9"), prunes: true})
	add(conformanceCase{name: "doc/numeric-time", src: conformanceDocFields(t), prunes: true,
		misprunes: "ROADMAP 21: the digest keys numeric and time bindings by their text",
		q: source.SubQuery{Language: source.LangSearch, InVars: []string{"n", "at"},
			Text: "SEARCH tweets WHERE retweet_count = ? AND created_at = ? RETURN _id, retweet_count, created_at"},
		sets: []value.Row{
			{value.NewString("469.0"), value.NewString("2016-03-01T04:42:31+01:00")},
			{value.NewString("4.69e2"), value.NewString("2016-03-01T03:42:31Z")},
			{value.NewInt(469), value.NewString("2016-02-29T22:42:31-05:00")},
			{value.NewFloat(12), value.NewString("2016-03-02T01:00:00+01:00")},
			{value.NewString("469"), value.NewString("2016-03-02T00:00:00Z")},
		}})
	add(conformanceCase{name: "xml", src: conformanceXML(t), q: xpath, sets: strs("A", "B", "Z")})
	add(conformanceCase{name: "rdf", src: conformanceRDF(), prunes: true,
		q: source.SubQuery{Language: source.LangBGP, Text: `q(?x, ?p) :- ?x :account ?acct . ?x :party ?p`,
			InVars: []string{"acct"}},
		sets: strs("alice", "bob", "nobody", "carol")})

	var calls [4]atomic.Int64
	rel, xml := relFixture(t), conformanceXML(t)
	add(conformanceCase{name: "cached/batching", ref: rel, calls: &calls[0], prunes: true,
		src: source.NewCached(watch(rel, &calls[0]), 16), q: pushdown, sets: keys})
	add(conformanceCase{name: "cached/plain", ref: xml, calls: &calls[1],
		src: source.NewCached(watch(xml, &calls[1]), 16), q: xpath, sets: strs("A", "B", "Z", "B")})
	add(conformanceCase{name: "client/rel", ref: rel, calls: &calls[2], prunes: true,
		src: serve(t, watch(rel, &calls[2])), q: pushdown, sets: keys})
	add(conformanceCase{name: "client/xml", ref: xml, calls: &calls[3],
		src: serve(t, watch(xml, &calls[3])), q: xpath, sets: strs("A", "B", "Z")})
	return cases
}

// rowKeys is a result's rows as a sorted multiset of keys.
func rowKeys(r *source.Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.Key()
	}
	slices.Sort(out)
	return out
}

// TestSourceConformance holds every source kind to the one contract the
// executor relies on:
//   - result i of ExecuteBatchWith equals Execute(params_i), as a
//     multiset with the same columns;
//   - a cancelled context reaches no source call, for a batch or a
//     batch of one;
//   - the source's digest never excludes a binding that returned rows.
func TestSourceConformance(t *testing.T) {
	for _, c := range conformanceCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ref := c.ref
			if ref == nil {
				ref = c.src
			}
			results, err := source.ExecuteBatchWith(context.Background(), c.src, c.q, c.sets)
			if err != nil {
				t.Fatalf("ExecuteBatchWith: %v", err)
			}
			if len(results) != len(c.sets) {
				t.Fatalf("%d results for %d tuples", len(results), len(c.sets))
			}
			rowsSeen := 0
			for i, ps := range c.sets {
				want, err := ref.Execute(c.q, ps)
				if err != nil {
					t.Fatalf("Execute(%v): %v", ps, err)
				}
				got := results[i]
				if !slices.Equal(got.Cols, want.Cols) || !slices.Equal(rowKeys(got), rowKeys(want)) {
					t.Errorf("tuple %d %v: batch gave %v %v, Execute %v %v", i, ps, got.Cols, got.Rows, want.Cols, want.Rows)
				}
				rowsSeen += len(got.Rows)
			}
			if rowsSeen == 0 {
				t.Fatal("no tuple returned rows: the case checks nothing")
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			before := c.calls.Load()
			if _, err := source.ExecuteBatchWith(ctx, c.src, c.q, c.sets); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled batch: err = %v", err)
			}
			if _, err := source.ExecuteBatchWith(ctx, c.src, c.q, c.sets[:1]); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled batch of one: err = %v", err)
			}
			if n := c.calls.Load() - before; n != 0 {
				t.Errorf("a cancelled context reached the source %d times", n)
			}

			d, err := digest.ForSource(c.src, digest.DefaultBudget())
			if err != nil {
				t.Fatal(err)
			}
			m := digest.Analyze(d, c.q, conformancePrefixes).Matcher
			if c.prunes != (m != nil) {
				t.Fatalf("digest matcher = %v, want one: %v", m, c.prunes)
			}
			excluded := 0
			for i, ps := range c.sets {
				if len(results[i].Rows) > 0 && !m.MayMatch(ps) {
					excluded++
					if c.misprunes == "" {
						t.Errorf("digest excludes %v, which returned %d rows", ps, len(results[i].Rows))
					}
				}
			}
			if c.misprunes != "" && excluded == 0 {
				t.Errorf("the digest no longer misprunes (%s): drop misprunes", c.misprunes)
			}
		})
	}
}
