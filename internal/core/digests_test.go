package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tatooine/internal/digest"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// digesterSource is a source with a scripted digest: Digest counts its
// calls, runs onDigest once if set, waits for release if set, and
// answers err or a fresh digest.
type digesterSource struct {
	uri string

	mu       sync.Mutex
	calls    int
	err      error
	onDigest func()
	release  chan struct{}
}

func (s *digesterSource) URI() string                  { return s.uri }
func (s *digesterSource) Model() source.Model          { return source.RelationalModel }
func (s *digesterSource) Languages() []source.Language { return []source.Language{source.LangSQL} }
func (s *digesterSource) Execute(source.SubQuery, []value.Value) (*source.Result, error) {
	return &source.Result{}, nil
}

func (s *digesterSource) Digest(digest.Budget) (*digest.Digest, error) {
	s.mu.Lock()
	s.calls++
	hook, release, err := s.onDigest, s.release, s.err
	s.onDigest = nil
	s.mu.Unlock()
	if hook != nil {
		hook()
	}
	if release != nil {
		<-release
	}
	if err != nil {
		return nil, err
	}
	return digest.NewDigest(s.uri), nil
}

func (s *digesterSource) digestCalls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// TestDigestCatalogSurvivesGraphWrites: the catalog never holds G, so
// graph writes must not send the planner back to the sources.
func TestDigestCatalogSurvivesGraphWrites(t *testing.T) {
	const prefix = "@prefix : <http://t.example/> .\n"
	in := NewInstance(nil, WithPrefixes(map[string]string{"": "http://t.example/"}))
	in.AddTriples(rdf.MustParse(prefix + `:p1 :electedIn "75" .`))
	db := relstore.NewDatabase("insee")
	for _, q := range []string{
		"CREATE TABLE departements (code TEXT PRIMARY KEY, name TEXT)",
		"INSERT INTO departements VALUES ('75','Paris'), ('92','Hauts-de-Seine')",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AddSource(source.NewRelSource("sql://insee", db)); err != nil {
		t.Fatal(err)
	}
	const q = `
QUERY q(?d, ?n)
GRAPH { ?x :electedIn ?d }
FROM <sql://insee> IN(?d) OUT(?d, ?n) { SELECT code, name FROM departements WHERE code = ? }`
	run := func(wantRows int) {
		t.Helper()
		res, err := in.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != wantRows {
			t.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
		}
	}
	run(1)
	fetches := in.DigestStats().Fetches
	if fetches == 0 {
		t.Fatal("the query did not consult the digest catalog")
	}
	added := rdf.MustParse(prefix + `:p2 :electedIn "92" .`)
	in.AddTriples(added)
	run(2)
	in.RemoveTriples(added)
	run(1)
	if got := in.DigestStats().Fetches; got != fetches {
		t.Errorf("digest fetches went %d → %d across graph writes, want unchanged", fetches, got)
	}
}

// TestDigestCatalogResets: each call that announces a changed source
// drops the catalog, so the next lookup refetches exactly once.
func TestDigestCatalogResets(t *testing.T) {
	for name, announce := range map[string]func(in *Instance) error{
		"AddSource":  func(in *Instance) error { return in.AddSource(&digesterSource{uri: "sql://c"}) },
		"DropSource": func(in *Instance) error { in.DropSource("sql://b"); return nil },
		"Invalidate": func(in *Instance) error { in.Invalidate(); return nil },
		"InvalidateSource": func(in *Instance) error {
			_, _, err := in.InvalidateSource("sql://a")
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			in := NewInstance(nil)
			a := &digesterSource{uri: "sql://a"}
			for _, s := range []source.DataSource{a, &digesterSource{uri: "sql://b"}} {
				if err := in.AddSource(s); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			in.SourceDigest(ctx, a)
			in.SourceDigest(ctx, a)
			if err := announce(in); err != nil {
				t.Fatal(err)
			}
			in.SourceDigest(ctx, a)
			in.SourceDigest(ctx, a)
			if got := a.digestCalls(); got != 2 {
				t.Errorf("digest built %d times, want 2 (one refetch after %s)", got, name)
			}
			if st := in.DigestStats(); st.Fetches != 2 || st.Hits != 2 {
				t.Errorf("stats = %+v, want 2 fetches and 2 hits", st)
			}
		})
	}
}

// TestDigestCatalogNegativeCache: a failed digest is remembered as
// "no digest" until the next reset instead of being retried per lookup.
func TestDigestCatalogNegativeCache(t *testing.T) {
	in := NewInstance(nil)
	s := &digesterSource{uri: "sql://down", err: errors.New("remote down")}
	if err := in.AddSource(s); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if d := in.SourceDigest(ctx, s); d != nil {
			t.Fatalf("lookup %d: got a digest from a failing source", i)
		}
	}
	if got := s.digestCalls(); got != 1 {
		t.Errorf("failing digest tried %d times before a reset, want 1", got)
	}
	in.Invalidate()
	in.SourceDigest(ctx, s)
	if got := s.digestCalls(); got != 2 {
		t.Errorf("failing digest tried %d times after a reset, want 2", got)
	}
}

// TestDigestCatalogInvalidateDuringFill: a digest built while its source
// is invalidated answers the lookup that built it, but is not kept — it
// may describe the source before the change.
func TestDigestCatalogInvalidateDuringFill(t *testing.T) {
	in := NewInstance(nil)
	s := &digesterSource{uri: "sql://a"}
	if err := in.AddSource(s); err != nil {
		t.Fatal(err)
	}
	s.onDigest = func() {
		if _, _, err := in.InvalidateSource(s.uri); err != nil {
			t.Error(err)
		}
	}
	ctx := context.Background()
	if d := in.SourceDigest(ctx, s); d == nil {
		t.Fatal("the racing fill did not answer its caller")
	}
	in.SourceDigest(ctx, s)
	if got := s.digestCalls(); got != 2 {
		t.Fatalf("digest built %d times, want 2: the fill that raced the invalidation was kept", got)
	}
	in.SourceDigest(ctx, s)
	if got := s.digestCalls(); got != 2 {
		t.Errorf("digest built %d times, want 2: the fresh fill was not kept", got)
	}
}

// TestDigestCatalogConcurrentFirstLookups: lookups that arrive while the
// first build runs wait for it and share its digest.
func TestDigestCatalogConcurrentFirstLookups(t *testing.T) {
	const n = 16
	in := NewInstance(nil)
	s := &digesterSource{uri: "sql://a", release: make(chan struct{})}
	if err := in.AddSource(s); err != nil {
		t.Fatal(err)
	}
	got := make([]*digest.Digest, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = in.SourceDigest(context.Background(), s)
		}()
	}
	// Hold the build until every lookup has reached the catalog.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := in.DigestStats(); st.Fetches+st.Hits == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lookups did not reach the catalog: %+v", in.DigestStats())
		}
	}
	close(s.release)
	wg.Wait()
	for i, d := range got {
		if d == nil || d != got[0] {
			t.Fatalf("lookup %d got %p, want the shared digest %p", i, d, got[0])
		}
	}
	if st := in.DigestStats(); st.Fetches != 1 || s.digestCalls() != 1 {
		t.Errorf("stats = %+v with %d builds, want 1 fetch and 1 build", st, s.digestCalls())
	}
}
