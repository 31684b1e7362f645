package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/obs"
	"tatooine/internal/value"
)

// replyRows has the shape of serve_hot's largest reply, an e1_common
// cache hit: 699 rows of two strings, a tweet id and an account.
func replyRows() []value.Row {
	rows := make([]value.Row, 699)
	for i := range rows {
		rows[i] = value.Row{
			value.NewString(fmt.Sprintf("tw%08d", 25+i*37)),
			value.NewString(fmt.Sprintf("depute_%04d", i%577)),
		}
	}
	return rows
}

// TestQueryReplyMatchesEncodingJSON: writeQuery writes exactly the
// bytes json.NewEncoder wrote for the same QueryResponse, for a reply
// with every field set, for the error and explain replies, and for
// nil and empty columns and rows.
func TestQueryReplyMatchesEncodingJSON(t *testing.T) {
	rows := append(replyRows()[:3],
		value.Row{value.NewString("Le chômage & l'emploi <3"), value.NewString("tab\there")},
		value.Row{value.NewNull(), value.NewInt(math.MinInt64), value.NewFloat(math.NaN()),
			value.NewBool(true), value.NewTime(time.Date(2016, 3, 1, 3, 42, 31, 5, time.UTC)),
			value.NewString("\x00\n\"<\\>\xff\xe2\x80\xa8")},
		value.Row{}, nil)
	cases := []QueryResponse{
		{Cols: []string{"a", "b<&>"}, Rows: rows, Cached: true,
			Stats:   core.ExecStats{SubQueries: 3, Nodes: []core.NodeStats{{Atom: 1, EstRows: -1, Rows: 4}}},
			Explain: &core.ExplainInfo{Plan: "scan <a> & b", Atoms: []core.AtomExplain{{Mode: "scan"}}},
			Trace:   &obs.SpanData{SpanID: "1", Name: "execute", Attrs: map[string]string{"q": "<x>"}},
			Error:   "partial: <oops>"},
		{Error: "server: empty query"},
		{Explain: &core.ExplainInfo{Plan: "p"}},
		{Cols: []string{}, Rows: []value.Row{}},
		{Cols: []string{}, Rows: []value.Row{{}}},
	}
	for i, resp := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeQuery(rec, 422, resp)
		if rec.Body.String() != want.String() {
			t.Fatalf("case %d:\n got %s\nwant %s", i, rec.Body, want.String())
		}
		if rec.Code != 422 || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("case %d: status %d, content type %q", i, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}

// BenchmarkReplyEncode writes a cache hit's /cmq reply, 699 rows of two
// strings, through the reply writer into a ResponseRecorder.
func BenchmarkReplyEncode(b *testing.B) {
	resp := QueryResponse{Cols: []string{"t", "id"}, Rows: replyRows(), Cached: true}
	body := bytes.NewBuffer(make([]byte, 0, 256<<10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body.Reset()
		rec := httptest.NewRecorder()
		rec.Body = body
		writeQuery(rec, 200, resp)
	}
	b.SetBytes(int64(body.Len()))
}
