package federation

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tatooine/internal/digest"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// brokenProxy serves valid /meta (so Dial succeeds) but answers /batch
// like a misconfigured reverse proxy: a non-JSON error page.
func brokenProxy(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /meta", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"uri":"sql://insee","model":"relational","languages":["sql"]}`))
	})
	failing := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}
	mux.HandleFunc("POST /batch", failing)
	mux.HandleFunc("POST /estimate", failing)
	mux.HandleFunc("GET /digest", failing)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestExecuteNonJSONErrorReportsStatus is the regression test for the
// decode-before-status bug: a proxy 502 with an HTML body must surface
// as the HTTP status, not as a JSON decode failure.
func TestExecuteNonJSONErrorReportsStatus(t *testing.T) {
	srv := brokenProxy(t, http.StatusBadGateway, "<html><body>502 Bad Gateway</body></html>")
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Execute(source.SubQuery{Language: source.LangSQL, Text: "SELECT 1"}, nil)
	if err == nil {
		t.Fatal("expected error from 502 endpoint")
	}
	if !strings.Contains(err.Error(), "502") {
		t.Errorf("error does not report the HTTP status: %v", err)
	}
	if strings.Contains(err.Error(), "bad response") {
		t.Errorf("error still surfaces as a decode failure: %v", err)
	}
}

// TestExecuteJSONErrorKeepsMessage: when the endpoint does send a JSON
// error with a non-200 status, both the status and the message survive.
func TestExecuteJSONErrorKeepsMessage(t *testing.T) {
	srv := brokenProxy(t, http.StatusUnprocessableEntity, `{"error":"no such table"}`)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Execute(source.SubQuery{Language: source.LangSQL, Text: "SELECT 1"}, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "422") || !strings.Contains(err.Error(), "no such table") {
		t.Errorf("error lost status or message: %v", err)
	}
}

// TestEstimateNonOKIsUnknown is the regression test for the
// trust-the-body bug: a 404/502 whose JSON (or HTML) error envelope
// decodes with Cost: 0 used to make a broken remote look like the
// cheapest source in the plan. Any non-OK status must degrade to
// unknown (-1, -1).
func TestEstimateNonOKIsUnknown(t *testing.T) {
	for name, srv := range map[string]*httptest.Server{
		"html 502":           brokenProxy(t, http.StatusBadGateway, "<html>502</html>"),
		"json error 404":     brokenProxy(t, http.StatusNotFound, `{"cost":0,"error":"no such route"}`),
		"json zero-cost 500": brokenProxy(t, http.StatusInternalServerError, `{"cost":0}`),
	} {
		c, err := Dial(srv.URL)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rows, cost := c.Estimate(source.SubQuery{Language: source.LangSQL, Text: "SELECT 1"}, 0); rows != -1 || cost != -1 {
			t.Errorf("%s: Estimate = (%d, %d), want (-1, -1)", name, rows, cost)
		}
	}
}

// TestEstimateErrorEnvelopeIsUnknown: even a 200 whose body names an
// error must not be trusted for its zero Cost.
func TestEstimateErrorEnvelopeIsUnknown(t *testing.T) {
	srv := brokenProxy(t, http.StatusOK, `{"cost":0,"error":"estimator offline"}`)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rows, cost := c.Estimate(source.SubQuery{Language: source.LangSQL, Text: "SELECT 1"}, 0); rows != -1 || cost != -1 {
		t.Errorf("Estimate with error envelope = (%d, %d), want (-1, -1)", rows, cost)
	}
}

// TestDialErrorStatusKeepsMessage: a non-OK /meta surfaces the status
// (and any JSON error message) instead of a decode failure, reading
// the error body through a bounded reader.
func TestDialErrorStatusKeepsMessage(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /meta", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"warming up"}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	_, err := Dial(srv.URL)
	if err == nil {
		t.Fatal("Dial of a 503 endpoint succeeded")
	}
	if !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "warming up") {
		t.Errorf("dial error lost status or message: %v", err)
	}
}

// TestDigestErrorStatusKeepsMessage: same contract for GET /digest.
func TestDigestErrorStatusKeepsMessage(t *testing.T) {
	srv := brokenProxy(t, http.StatusBadGateway, "<html>502</html>")
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Digest(digest.DefaultBudget()); err == nil || !strings.Contains(err.Error(), "502") {
		t.Errorf("digest error does not report the HTTP status: %v", err)
	}
}

// TestCutErrorKeepsMessage: a /batch error reply longer than the part
// the client reads (a 10 KiB table name echoed in the message) keeps
// the message's first bytes instead of dropping it with the cut JSON.
func TestCutErrorKeepsMessage(t *testing.T) {
	srv, _ := servedRelSource(t)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	table := "t" + strings.Repeat("x", 10<<10)
	_, err = c.ExecuteBatch(source.SubQuery{Language: source.LangSQL, Text: "SELECT x FROM " + table}, []value.Row{nil})
	if err == nil {
		t.Fatal("a query of an unknown table succeeded")
	}
	if !strings.Contains(err.Error(), "422") || !strings.Contains(err.Error(), `unknown table "txxxx`) {
		t.Errorf("error lost status or message: %.200s", err)
	}
	if len(err.Error()) > len(table) {
		t.Errorf("error is %d bytes: the client read more than the first 8 KiB", len(err.Error()))
	}
}

// TestErrorMessageCutInEscape: wherever the cut falls, in a string
// escape or a multi-byte character included, the message's first bytes
// survive.
func TestErrorMessageCutInEscape(t *testing.T) {
	body := []byte(`{"error":"ab\u003c\"é\ud83d\ude00cd"}`)
	for cut := len(`{"error":"ab`); cut < len(body); cut++ {
		if msg := errorMessage(body[:cut]); !strings.HasPrefix(msg, "ab") {
			t.Errorf("cut at %d (%s): message %q", cut, body[:cut], msg)
		}
	}
	if msg := errorMessage([]byte("<html>502</html>")); msg != "" {
		t.Errorf("non-JSON body gave message %q", msg)
	}
}
