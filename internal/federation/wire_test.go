package federation

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// wireTimes are instants in years −1, 0, 9999 and 10000, with
// nanoseconds: RFC 3339 text cannot carry the first and the last.
func wireTimes() []value.Value {
	return []value.Value{
		value.NewTime(time.Date(-1, 6, 15, 12, 0, 0, 1, time.UTC)),
		value.NewTime(time.Date(0, 1, 1, 0, 30, 0, 500, time.UTC)),
		value.NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)),
		value.NewTime(time.Date(10000, 1, 1, 0, 0, 0, 42, time.UTC)),
	}
}

// TestWireFidelity: every kind of value crosses /batch exactly.
// For each parameter tuple, the rows a Client gets from a served
// source are, value by value in kind and key, the rows the same batch
// returns in-process, over a relational, a document and an RDF source:
// NaN, ±Inf, −0 and the int64 extremes, times outside years 0000–9999,
// the empty string and invalid UTF-8 as cells and as parameters, and
// zero-width and nil rows.
func TestWireFidelity(t *testing.T) {
	str, vi, vf := value.NewString, value.NewInt, value.NewFloat
	db := relstore.NewDatabase("cells")
	var cells [][]any
	ints := []int64{0, -1, math.MinInt64, math.MaxInt64}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	strs := []string{"", "bad\xff", "bad", "héllo\x00"}
	for i, tm := range wireTimes() {
		cells = append(cells, []any{i, strs[i], vi(ints[i]), floats[i], i%2 == 0, tm})
	}
	cells = append(cells, []any{len(cells), nil, nil, nil, nil, nil})
	loadTable(t, db, relstore.Schema{Name: "cells", PrimaryKey: []string{"id"}, Columns: []relstore.Column{
		{Name: "id", Type: value.Int}, {Name: "s", Type: value.String}, {Name: "i", Type: value.Int},
		{Name: "f", Type: value.Float}, {Name: "b", Type: value.Bool}, {Name: "t", Type: value.Time}}},
		cells...)
	rel := source.NewRelSource("sql://cells", db)

	ix := fulltext.NewIndex("docs", fulltext.Schema{"user": fulltext.KeywordField, "n": fulltext.NumericField})
	for i, user := range strs {
		d := &doc.Document{ID: "d" + user}
		d.Set("user", user)
		d.Set("n", []any{ints[i], floats[i]})
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	docs := source.NewDocSource("solr://docs", ix)

	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`<http://t.example/p> <http://t.example/name> "bad" .`))
	graph := source.NewRDFSource("rdf://g", g)

	sql := func(text string, inVars ...string) source.SubQuery {
		return source.SubQuery{Language: source.LangSQL, Text: text, InVars: inVars}
	}
	var timeSets, stringSets []value.Row
	for _, tm := range wireTimes() {
		timeSets = append(timeSets, value.Row{tm})
	}
	for _, s := range strs {
		stringSets = append(stringSets, value.Row{str(s)})
	}
	for _, c := range []struct {
		name string
		src  source.DataSource
		q    source.SubQuery
		sets []value.Row
	}{
		{"every cell", rel, sql("SELECT id, s, i, f, b, t FROM cells"), []value.Row{nil, {}}},
		{"string parameters", rel, sql("SELECT id, s FROM cells WHERE s = ?", "s"), stringSets},
		{"time parameters", rel, sql("SELECT id, t FROM cells WHERE t = ?", "t"), timeSets},
		{"int parameters", rel, sql("SELECT id, i FROM cells WHERE i = ?", "i"),
			[]value.Row{{vi(math.MinInt64)}, {vi(math.MaxInt64)}, {vf(-1)}}},
		{"float parameters", rel, sql("SELECT id, f FROM cells WHERE f = ?", "f"),
			[]value.Row{{vf(math.Inf(1))}, {vf(math.Inf(-1))}, {vf(math.NaN())}, {vf(0)}}},
		{"document cells", docs, source.SubQuery{Language: source.LangSearch, Text: "SEARCH docs RETURN _id, user, n"}, []value.Row{nil}},
		{"document parameters", docs, source.SubQuery{Language: source.LangSearch,
			Text: "SEARCH docs WHERE user = ? RETURN _id, n", InVars: []string{"u"}}, stringSets},
		{"zero-width rows", graph, source.SubQuery{Language: source.LangBGP,
			Text: `q() :- <http://t.example/p> <http://t.example/name> ?n`, InVars: []string{"n"}},
			[]value.Row{{str("bad")}, {str("bad\xff")}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(Handler(c.src))
			defer srv.Close()
			cl, err := Dial(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.ExecuteBatch(c.q, c.sets)
			if err != nil {
				t.Fatal(err)
			}
			local, err := source.ExecuteBatchWith(context.Background(), c.src, c.q, c.sets)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for i, ps := range c.sets {
				want := local[i]
				rows += len(want.Rows)
				if !slices.Equal(got[i].Cols, want.Cols) {
					t.Errorf("tuple %d: columns %q over the wire, %q in-process", i, got[i].Cols, want.Cols)
				}
				if g, w := multiset(got[i].Rows), multiset(want.Rows); !slices.Equal(g, w) {
					t.Errorf("tuple %d %q:\nwire       %q\nin-process %q", i, ps.Key(), g, w)
				}
			}
			if rows == 0 {
				t.Fatal("the batch returned no rows: the case checks nothing")
			}
		})
	}
}

// TestClientRefusesOverlongReply: with no cap on the whole reply, a
// remote that claims a frame or a count over value.MaxFrame is still
// refused, before the client allocates for the claim.
func TestClientRefusesOverlongReply(t *testing.T) {
	over := binary.AppendUvarint(nil, value.MaxFrame+1)
	for name, body := range map[string][]byte{
		"result count": over,
		"column frame": append([]byte{1}, over...),
		"row count":    append(append([]byte{1}, value.AppendFrame(nil, nil)...), over...),
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /meta", func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(`{"uri":"sql://liar","model":"relational","languages":["sql"]}`))
		})
		mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", batchMediaType)
			_, _ = w.Write(body)
		})
		srv := httptest.NewServer(mux)
		c, err := Dial(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = c.ExecuteBatch(batchQuery, codes("75"))
		runtime.ReadMemStats(&after)
		srv.Close()
		if !errors.Is(err, value.ErrFrameTooLong) {
			t.Errorf("%s over MaxFrame: err = %v, want ErrFrameTooLong", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s over MaxFrame: the client allocated %d bytes", name, grew)
		}
	}
}

// FuzzBatchReply feeds arbitrary bytes to the client's reply reader, as
// a hostile remote would. The reader never panics, allocates about
// what it is sent whatever lengths and counts claim, and returns an
// error or exactly the results asked for, which write back to the same
// bytes.
func FuzzBatchReply(f *testing.F) {
	for _, results := range [][]*source.Result{
		{{Cols: []string{"name", "population"}, Rows: []value.Row{{value.NewString("Paris"), value.NewInt(2187526)}}}},
		{{}, {Cols: []string{"t"}, Rows: []value.Row{{wireTimes()[3]}, {value.NewNull()}, {}}}},
		{{Cols: []string{"x", "f", "b"}, Rows: []value.Row{{value.NewString("bad\xff"), value.NewFloat(math.NaN()), value.NewBool(true)}}}},
		{},
	} {
		f.Add(uint8(len(results)), appendBatchReply(nil, results))
	}
	f.Add(uint8(1), []byte{1, 0x80, 0x80, 0x80, 0x20})    // a frame of MaxFrame bytes, none sent
	f.Add(uint8(1), []byte{1, 2, 0, 0, 0xff, 0xff, 0x7f}) // a row count of 2^21-1, no rows
	f.Add(uint8(2), []byte("not a frame"))
	f.Fuzz(func(t *testing.T, want uint8, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		results, err := readBatchReply(bufio.NewReader(bytes.NewReader(body)), int(want))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(body)) {
			t.Fatalf("a %d-byte reply allocated %d bytes", len(body), grew)
		}
		if err != nil {
			return
		}
		if len(results) != int(want) {
			t.Fatalf("%d results, %d asked for", len(results), want)
		}
		if again := appendBatchReply(nil, results); !bytes.Equal(again, body) {
			t.Fatalf("results write back as\n%x\nread from\n%x", again, body)
		}
	})
}
