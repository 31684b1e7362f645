package federation

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/digest"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// serveDials serves h and counts the connections clients open to it.
func serveDials(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &dials
}

// bigRelSource is a 500-row relational source: its /digest reply is
// larger than the server buffers before it sends a chunked body.
func bigRelSource(t *testing.T) source.DataSource {
	t.Helper()
	db := relstore.NewDatabase("insee")
	tbl := loadTable(t, db, relstore.Schema{Name: "departements", PrimaryKey: []string{"code"}, Columns: []relstore.Column{
		{Name: "code", Type: value.String}, {Name: "name", Type: value.String},
		{Name: "population", Type: value.Int}}})
	for i := range 500 {
		row := value.Row{value.NewString(fmt.Sprintf("%03d", i)), value.NewString(fmt.Sprintf("dept-%d", i)), value.NewInt(int64(i))}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return source.NewRelSource("sql://insee", db)
}

// TestClientReusesOneConnection: one Client calling every route in
// sequence — /meta, /digest, /estimate, /batch, and a /batch the
// endpoint refuses with 422 — keeps one connection open throughout.
// A reply body closed before its end takes the connection with it.
func TestClientReusesOneConnection(t *testing.T) {
	srv, dials := serveDials(t, Handler(bigRelSource(t)))
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := c.Digest(digest.DefaultBudget()); err != nil || d == nil {
		t.Fatalf("digest: %v", err)
	}
	if rows, _ := c.Estimate(batchQuery, 1); rows < 0 {
		t.Fatal("estimate: unknown")
	}
	for i := range 3 {
		if _, err := c.ExecuteBatch(batchQuery, codes("001", "002", fmt.Sprintf("%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The 422's error names the table, so its body is longer than the
	// 8 KiB statusError reads.
	bad := source.SubQuery{Language: source.LangSQL, Text: "SELECT x FROM missing_" + strings.Repeat("t", 10<<10)}
	if _, err := c.ExecuteBatch(bad, codes("001")); err == nil {
		t.Fatal("a /batch over a missing table succeeded")
	}
	if _, err := c.ExecuteBatch(batchQuery, codes("003")); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("one client calling each route in turn opened %d connections, want 1", n)
	}
}

// TestConcurrentBatchesReuseConnections: k concurrent /batch calls over
// one Client open at most k connections, and k more open none — the
// client keeps every connection a burst of probes opened.
func TestConcurrentBatchesReuseConnections(t *testing.T) {
	const k = 16
	inner := Handler(bigRelSource(t))
	// Each /batch waits until k are in the handler, so both rounds hold
	// k requests in flight at once.
	var mu sync.Mutex
	arrived := 0
	gate := make(chan struct{})
	srv, dials := serveDials(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/batch" {
			mu.Lock()
			arrived++
			g := gate
			if arrived%k == 0 {
				close(gate)
				gate = make(chan struct{})
			}
			mu.Unlock()
			select {
			case <-g:
			case <-time.After(10 * time.Second):
			}
		}
		inner.ServeHTTP(w, r)
	}))
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, k)
		for i := range k {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := c.ExecuteBatch(batchQuery, codes(fmt.Sprintf("%03d", i)))
				if err == nil && len(res[0].Rows) != 1 {
					err = fmt.Errorf("tuple %d: %d rows, want 1", i, len(res[0].Rows))
				}
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	first := dials.Load()
	if first > k {
		t.Fatalf("%d concurrent batches opened %d connections", k, first)
	}
	round()
	if n := dials.Load(); n != first {
		t.Errorf("second round of %d concurrent batches opened %d new connections, want 0", k, n-first)
	}
}

// TestRemoteBindJoinIsOneBatch: a bind join of 300 distinct tuples into
// a remote endpoint ships them as one /batch request.
func TestRemoteBindJoinIsOneBatch(t *testing.T) {
	const n = 300
	seed := relstore.NewDatabase("seed")
	seeds := loadTable(t, seed, relstore.Schema{Name: "seed", Columns: []relstore.Column{{Name: "k", Type: value.String}}})
	tdb := relstore.NewDatabase("target")
	targets := loadTable(t, tdb, relstore.Schema{Name: "t", Columns: []relstore.Column{
		{Name: "k", Type: value.String}, {Name: "v", Type: value.Int}}})
	for i := range n {
		k := value.NewString(fmt.Sprintf("k%d", i))
		if err := seeds.Insert(value.Row{k}); err != nil {
			t.Fatal(err)
		}
		if err := targets.Insert(value.Row{k, value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	srv, rc := serveCounted(t, Handler(source.NewRelSource("sql://target", tdb)))
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	in := core.NewInstance(nil)
	for _, s := range []source.DataSource{source.NewRelSource("sql://seed", seed), c} {
		if err := in.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.ExecuteOpts(core.MustParseCMQ(`
QUERY q(?x, ?y)
FROM <sql://seed> OUT(?x) { SELECT k FROM seed }
FROM <sql://target> IN(?x) OUT(?x, ?y) { SELECT k, v FROM t WHERE k = ? }
`), core.ExecOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("%d rows, want %d", len(res.Rows), n)
	}
	if got := rc.count("/batch"); got != 1 {
		t.Errorf("a bind join of %d tuples sent %d /batch requests, want 1", n, got)
	}
}

// TestRemoteBindJoinOverMaxFrame: a bind join whose one /batch reply is
// larger than value.MaxFrame (64 MiB) still returns every row. 300 keys
// bind-join to a remote holding 230 rows per key, each with a
// 1,000-byte string: about 70 MB in one reply. The client bounds each
// frame and each count, not the reply.
func TestRemoteBindJoinOverMaxFrame(t *testing.T) {
	const keys, perKey = 300, 230
	pad := value.NewString(strings.Repeat("x", 1000))
	seed := relstore.NewDatabase("seed")
	seeds := loadTable(t, seed, relstore.Schema{Name: "seed", Columns: []relstore.Column{{Name: "k", Type: value.String}}})
	tdb := relstore.NewDatabase("target")
	targets := loadTable(t, tdb, relstore.Schema{Name: "t", Columns: []relstore.Column{
		{Name: "k", Type: value.String}, {Name: "pad", Type: value.String}}})
	for i := range keys {
		k := value.NewString(fmt.Sprintf("k%d", i))
		if err := seeds.Insert(value.Row{k}); err != nil {
			t.Fatal(err)
		}
		for range perKey {
			if err := targets.Insert(value.Row{k, pad}); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv, rc := serveCounted(t, Handler(source.NewRelSource("sql://target", tdb)))
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	in := core.NewInstance(nil)
	for _, s := range []source.DataSource{source.NewRelSource("sql://seed", seed), c} {
		if err := in.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Execute(core.MustParseCMQ(`
QUERY q(?x, ?p)
FROM <sql://seed> OUT(?x) { SELECT k FROM seed }
FROM <sql://target> IN(?x) OUT(?x, ?p) { SELECT k, pad FROM t WHERE k = ? }
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != keys*perKey {
		t.Fatalf("%d rows, want %d", len(res.Rows), keys*perKey)
	}
	if got := rc.count("/batch"); got != 1 {
		t.Errorf("%d /batch requests, want 1", got)
	}
}
