package federation

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/digest"
	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

func servedDocSource(t *testing.T) (*httptest.Server, *fulltext.Index) {
	t.Helper()
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text":              fulltext.TextField,
		"user.screen_name":  fulltext.KeywordField,
		"entities.hashtags": fulltext.KeywordField,
	})
	d := &doc.Document{ID: "t1"}
	d.Set("text", "solidarité #SIA2016")
	d.Set("user.screen_name", "fhollande")
	d.Set("entities.hashtags", []any{"SIA2016"})
	if err := ix.Add(d); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(source.NewDocSource("solr://tweets", ix)))
	t.Cleanup(srv.Close)
	return srv, ix
}

func TestDigestEndpoint(t *testing.T) {
	srv, _ := servedDocSource(t)
	resp, err := http.Get(srv.URL + "/digest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %s", resp.Status)
	}
	var d digest.Digest
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Source != "solr://tweets" {
		t.Errorf("source: %s", d.Source)
	}
	hits := d.Lookup("SIA2016")
	if len(hits) == 0 {
		t.Error("remote digest lookup failed")
	}
}

// TestDigestEndpointFollowsSource: GET /digest describes the served
// source as it is now. A tweet from a new account, announced to the
// mediator with InvalidateSource, must not be pruned by the Bloom filter
// of a digest built before it existed.
func TestDigestEndpointFollowsSource(t *testing.T) {
	srv, ix := servedDocSource(t)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "@prefix : <http://t.example/> .\n"
	in := core.NewInstance(rdf.NewGraph(), core.WithPrefixes(map[string]string{"": "http://t.example/"}))
	in.AddTriples(rdf.MustParse(prefix + `:p1 :twitterAccount "fhollande" .`))
	if err := in.AddSource(c); err != nil {
		t.Fatal(err)
	}
	q := core.MustParseCMQ(`
QUERY q(?t)
GRAPH { ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? RETURN _id, user.screen_name }`)
	tweets := func() []string {
		t.Helper()
		res, err := in.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range res.Rows {
			ids = append(ids, r[0].Str())
		}
		slices.Sort(ids)
		return ids
	}
	if got := tweets(); !slices.Equal(got, []string{"t1"}) {
		t.Fatalf("before the write: %v, want [t1]", got)
	}

	d := &doc.Document{ID: "t2"}
	d.Set("text", "au salon #SIA2016")
	d.Set("user.screen_name", "jdupont")
	d.Set("entities.hashtags", []any{"SIA2016"})
	if err := ix.Add(d); err != nil {
		t.Fatal(err)
	}
	in.AddTriples(rdf.MustParse(prefix + `:p2 :twitterAccount "jdupont" .`))
	if _, _, err := in.InvalidateSource("solr://tweets"); err != nil {
		t.Fatal(err)
	}
	if got := tweets(); !slices.Equal(got, []string{"t1", "t2"}) {
		t.Errorf("after the write: %v, want [t1 t2]", got)
	}
}

func TestClientDigest(t *testing.T) {
	srv, _ := servedDocSource(t)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Digest(digest.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	n := d.Nodes["solr://tweets#user.screen_name"]
	if n == nil {
		t.Fatal("screen_name node missing in remote digest")
	}
	if !n.Values.MayContain("fhollande") {
		t.Error("remote value set lost membership")
	}
	if orig, ok := n.Values.Original("fhollande"); !ok || orig != "fhollande" {
		t.Errorf("original: %q %v", orig, ok)
	}
}

// undigestableSource is a DataSource with no digest support.
type undigestableSource struct{}

func (undigestableSource) URI() string                  { return "x://y" }
func (undigestableSource) Model() source.Model          { return source.RDFModel }
func (undigestableSource) Languages() []source.Language { return nil }
func (undigestableSource) Execute(source.SubQuery, []value.Value) (*source.Result, error) {
	return &source.Result{}, nil
}

func TestDigestEndpointUndigestable(t *testing.T) {
	srv := httptest.NewServer(Handler(undigestableSource{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/digest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("undigestable source served a digest")
	}
}

// TestHandlerBadRequests: /batch answers a body in another media type
// with 415, and an empty, cut, over-long or overrunning body with 400,
// each with a JSON error envelope; an unknown route is 404.
func TestHandlerBadRequests(t *testing.T) {
	srv, _ := servedDocSource(t)
	good := appendBatchRequest(nil, source.SubQuery{Language: source.LangSearch, Text: "SEARCH tweets RETURN _id"}, []value.Row{{}})
	for _, c := range []struct {
		name, mediaType string
		body            []byte
		status          int
	}{
		{"JSON body", "application/json", []byte(`{"language":"search","text":"SEARCH tweets RETURN _id","paramSets":[[]]}`), http.StatusUnsupportedMediaType},
		{"no media type", "", good, http.StatusUnsupportedMediaType},
		{"empty body", batchMediaType, nil, http.StatusBadRequest},
		{"cut body", batchMediaType, good[:len(good)-1], http.StatusBadRequest},
		{"trailing bytes", batchMediaType, append(slices.Clip(good), 0), http.StatusBadRequest},
		{"over-long frame", batchMediaType, binary.AppendUvarint(nil, value.MaxFrame+1), http.StatusBadRequest},
		{"header of one string", batchMediaType, append(value.AppendFrame(nil, value.Row{value.NewString("search")}), 0), http.StatusBadRequest},
		{"header of an int", batchMediaType, append(value.AppendFrame(nil, value.Row{value.NewString("search"), value.NewInt(1)}), 0), http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/batch", c.mediaType, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != c.status || err != nil || envelope.Error == "" {
			t.Errorf("%s: status %s, error envelope %q (%v); want %d with an error", c.name, resp.Status, envelope.Error, err, c.status)
		}
	}
	resp := postBatch(t, srv.URL, good)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != batchMediaType {
		t.Errorf("well-formed body: status %s in media type %q", resp.Status, ct)
	}
	// Unknown route.
	resp2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route status: %s", resp2.Status)
	}
}
