package federation

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// slowSource delays every probe of the source it wraps.
type slowSource struct {
	source.DataSource
	delay time.Duration
}

func (s slowSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	time.Sleep(s.delay)
	return s.DataSource.Execute(q, params)
}

// TestSlowRemoteWarningComparesWireTime: the slow-remote warning
// compares the time on the wire with the modeled overhead. A remote
// that computes for 150 ms is not slow on the wire and logs nothing;
// the same delay in front of the remote's handler, before it starts its
// clock, is wire time and logs the warning.
func TestSlowRemoteWarningComparesWireTime(t *testing.T) {
	var logged bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "departements", Columns: []relstore.Column{
		{Name: "code", Type: value.String}}}, []any{"75"})
	src := source.NewRelSource("sql://insee", db)
	const delay = 150 * time.Millisecond
	remote := Handler(src)
	for _, tc := range []struct {
		name string
		h    http.Handler
		warn bool
	}{
		{"slow handler", Handler(slowSource{src, delay}), false},
		{"slow wire", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				time.Sleep(delay)
			}
			remote.ServeHTTP(w, r)
		}), true},
	} {
		logged.Reset()
		srv := httptest.NewServer(tc.h)
		c, err := Dial(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(source.SubQuery{Language: source.LangSQL, Text: "SELECT code FROM departements"}, nil); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if got := strings.Contains(logged.String(), "remote RTT far above modeled overhead"); got != tc.warn {
			t.Errorf("%s: warned = %v, want %v; log: %q", tc.name, got, tc.warn, logged.String())
		}
	}
}
