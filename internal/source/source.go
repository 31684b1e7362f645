// Package source defines the data-source abstraction of TATOOINE's
// mixed instances: every heterogeneous store (RDF graph, relational
// database, full-text document index, remote endpoint) is exposed to
// the mediator as a DataSource that evaluates native sub-queries and
// returns uniform tuple results. The registry resolves source URIs,
// including URIs discovered at query run time (dynamic source
// discovery, §2.2 of the paper).
package source

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tatooine/internal/lru"
	"tatooine/internal/value"
)

// Model identifies a source's data model.
type Model uint8

const (
	RDFModel Model = iota
	RelationalModel
	DocumentModel
)

func (m Model) String() string {
	switch m {
	case RDFModel:
		return "rdf"
	case RelationalModel:
		return "relational"
	case DocumentModel:
		return "document"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// Language identifies a sub-query language a source accepts.
type Language string

const (
	// LangBGP is the basic-graph-pattern syntax of internal/rdf.
	LangBGP Language = "bgp"
	// LangSQL is the SQL subset of internal/sqlparse.
	LangSQL Language = "sql"
	// LangSearch is the SEARCH syntax of internal/fulltext.
	LangSearch Language = "search"
)

// SubQuery is one native sub-query of a mixed query, destined for a
// single source.
type SubQuery struct {
	// Language the Text is written in.
	Language Language
	// Text is the native query.
	Text string
	// InVars names the parameters the query expects, in order. For SQL
	// and SEARCH texts they correspond positionally to '?' placeholders;
	// for BGP texts they name pattern variables to pre-bind. The
	// mediator supplies the bound values via Execute's params.
	InVars []string
	// Prune optionally carries one membership filter per InVar position
	// (nil entries mean "no filter"). Executors and federation
	// endpoints may skip binding tuples a filter provably excludes.
	// Filters never change results — only avoid empty probes — so they
	// take no part in cache keys or equality.
	Prune []ProbeFilter `json:"-"`
}

// ProbeFilter tests whether a normalized probe key may match at the
// target source (implemented by digest Bloom filters). Implementations
// must never answer false for a key that is actually present —
// semi-join pruning relies on the no-false-negative contract.
type ProbeFilter interface {
	MayContainKey(key string) bool
}

// Result is a uniform tuple result: column names and rows of values.
type Result struct {
	Cols []string
	Rows []value.Row
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// DataSource is a queryable member of a mixed instance. Sources that
// can estimate a sub-query's cost also implement Estimator.
type DataSource interface {
	// URI is the source's identifier inside the mixed instance.
	URI() string
	// Model reports the source's data model.
	Model() Model
	// Languages lists the sub-query languages the source accepts.
	Languages() []Language
	// Execute evaluates a native sub-query. params bind the query's
	// placeholders in order (bind joins push outer bindings here).
	Execute(q SubQuery, params []value.Value) (*Result, error)
}

// Accepts reports whether the source accepts the given language.
func Accepts(s DataSource, lang Language) bool {
	for _, l := range s.Languages() {
		if l == lang {
			return true
		}
	}
	return false
}

// Resolver resolves a URI outside the local registry (e.g. an HTTP
// federation client). Registered with Registry.SetFallback.
type Resolver func(uri string) (DataSource, error)

// Invalidator is implemented by source decorators (Cached) that hold
// memoized state derived from their inner source. Invalidate drops
// that state and returns how many result entries were discarded, so a
// mutated source stops serving pre-mutation rows before its TTL.
type Invalidator interface {
	Invalidate() int
}

// Registry maps source URIs to DataSources; it is the catalog of a
// mixed instance's D component.
type Registry struct {
	mu       sync.RWMutex
	sources  map[string]DataSource
	fallback Resolver
	// wrapper, once installed by Interpose, decorates every source that
	// enters the registry afterwards (Register and SetFallback included),
	// so wiring order cannot silently lose the decoration.
	wrapper func(DataSource) DataSource
	// memo, set when the fallback resolver is wrapped, indexes the
	// memoized wrappers of dynamically discovered sources so Lookup and
	// InvalidateCaches reach sources that never entered the registry.
	memo *resolverMemo
}

// resolverMemo bounds and indexes the stable wrappers of dynamically
// discovered sources (see Interpose).
type resolverMemo struct {
	mu  sync.Mutex
	lru *lru.Cache[DataSource]
}

func (m *resolverMemo) peek(uri string) (DataSource, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Get(uri)
}

func (m *resolverMemo) clear() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Clear()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]DataSource)}
}

// Register adds a source; a URI can only be registered once.
func (r *Registry) Register(s DataSource) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	uri := s.URI()
	if uri == "" {
		return fmt.Errorf("source: cannot register a source with empty URI")
	}
	if _, dup := r.sources[uri]; dup {
		return fmt.Errorf("source: URI %q already registered", uri)
	}
	if r.wrapper != nil {
		s = r.wrapper(s)
	}
	r.sources[uri] = s
	return nil
}

// Deregister removes the source registered under uri, dropping its
// interposed wrapper (and thus its probe and estimate caches) with it,
// so a dropped source cannot keep serving cached rows. It reports
// whether a source was removed; the URI can be registered again later.
func (r *Registry) Deregister(uri string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sources[uri]; !ok {
		return false
	}
	delete(r.sources, uri)
	return true
}

// SetFallback installs a resolver consulted when a URI is not
// registered locally (remote endpoints / dynamic discovery). An
// interposed wrapper applies to the new resolver's sources too.
func (r *Registry) SetFallback(f Resolver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapper != nil && f != nil {
		f, r.memo = wrapResolver(f, r.wrapper)
	} else {
		r.memo = nil
	}
	r.fallback = f
}

// FallbackMemoSize bounds the number of dynamically discovered sources
// an interposed fallback keeps wrappers (and their caches) for; the
// least recently resolved are dropped and simply re-resolved on next
// use, so a long-running mediator cannot grow without limit.
const FallbackMemoSize = 256

// Interposed reports whether a wrapper is installed, letting callers
// avoid stacking decorators on an already-interposed registry.
func (r *Registry) Interposed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.wrapper != nil
}

// Interpose wraps every source in the registry — those currently
// registered, those registered later, and every source the fallback
// resolver produces — with wrap(s). Fallback resolutions are memoized
// per URI (bounded by FallbackMemoSize) so a dynamically discovered
// source keeps one stable wrapper (and one stable cache, when wrap is
// NewCached) across queries instead of being re-dialed and re-wrapped
// on every resolution.
func (r *Registry) Interpose(wrap func(DataSource) DataSource) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrapper = wrap
	for uri, s := range r.sources {
		r.sources[uri] = wrap(s)
	}
	if r.fallback != nil {
		r.fallback, r.memo = wrapResolver(r.fallback, wrap)
	}
}

// Lookup returns the already-materialized source for uri — registered,
// or dynamically discovered and currently memoized — WITHOUT consulting
// the fallback resolver. Use it when resolution side effects (dialing
// an arbitrary URI, inserting a fresh wrapper into the memo) would be
// wrong, e.g. when targeting an invalidation.
func (r *Registry) Lookup(uri string) (DataSource, bool) {
	r.mu.RLock()
	s, ok := r.sources[uri]
	memo := r.memo
	r.mu.RUnlock()
	if ok {
		return s, true
	}
	if memo != nil {
		return memo.peek(uri)
	}
	return nil, false
}

// InvalidateCaches flushes every interposed probe cache: each
// registered source implementing Invalidator drops its memoized
// entries, and the fallback resolver's memoized wrappers for
// dynamically discovered sources are discarded entirely (they are
// re-dialed and re-wrapped fresh on next use). It returns the number
// of result entries dropped from registered sources' caches.
func (r *Registry) InvalidateCaches() int {
	r.mu.Lock()
	dropped := 0
	for _, s := range r.sources {
		if inv, ok := s.(Invalidator); ok {
			dropped += inv.Invalidate()
		}
	}
	memo := r.memo
	r.mu.Unlock()
	if memo != nil {
		memo.clear()
	}
	return dropped
}

// wrapResolver decorates a fallback resolver's sources with wrap,
// memoizing resolutions per URI (bounded by FallbackMemoSize). The
// returned memo lets the registry peek and clear the wrappers.
func wrapResolver(fb Resolver, wrap func(DataSource) DataSource) (Resolver, *resolverMemo) {
	memo := &resolverMemo{lru: lru.New[DataSource](FallbackMemoSize)}
	resolve := func(uri string) (DataSource, error) {
		if s, ok := memo.peek(uri); ok {
			return s, nil
		}
		inner, err := fb(uri)
		if err != nil {
			return nil, err
		}
		wrapped := wrap(inner)
		memo.mu.Lock()
		if prev, dup := memo.lru.Get(uri); dup {
			wrapped = prev // concurrent resolvers share one wrapper
		} else {
			memo.lru.Put(uri, wrapped)
		}
		memo.mu.Unlock()
		return wrapped, nil
	}
	return resolve, memo
}

// Resolve returns the source for a URI, consulting the fallback
// resolver for unknown URIs that look remote.
func (r *Registry) Resolve(uri string) (DataSource, error) {
	r.mu.RLock()
	s, ok := r.sources[uri]
	fb := r.fallback
	r.mu.RUnlock()
	if ok {
		return s, nil
	}
	if fb != nil && (strings.HasPrefix(uri, "http://") || strings.HasPrefix(uri, "https://")) {
		return fb(uri)
	}
	return nil, fmt.Errorf("source: unknown source URI %q", uri)
}

// All returns the registered sources sorted by URI.
func (r *Registry) All() []DataSource {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DataSource, 0, len(r.sources))
	for _, s := range r.sources {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URI() < out[j].URI() })
	return out
}

// ByLanguage returns registered sources accepting lang, sorted by URI.
func (r *Registry) ByLanguage(lang Language) []DataSource {
	var out []DataSource
	for _, s := range r.All() {
		if Accepts(s, lang) {
			out = append(out, s)
		}
	}
	return out
}
