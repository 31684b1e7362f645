package rdf

import (
	"sort"
	"sync"

	"tatooine/internal/store"
)

// tripleBackend is the storage engine behind a Graph: the three
// permutation indexes (SPO/POS/OSP) reduced to eight operations. The
// default backend is nested in-memory maps (mapTriples); a store-backed
// graph runs the same access paths over B-tree cursors (storeTriples).
// All methods are called with the Graph's lock held (write lock for
// add/remove, read lock otherwise), so implementations need no internal
// locking, except for state a reader writes: the store backend's
// sticky error is set by concurrent readers.
type tripleBackend interface {
	add(s, p, o TermID) bool
	remove(s, p, o TermID) bool
	contains(s, p, o TermID) bool
	// match calls fn for every triple matching the pattern (NoTerm is a
	// wildcard in any position); iteration stops when fn returns false.
	match(s, p, o TermID, fn func(s, p, o TermID) bool)
	count(s, p, o TermID) int
	size() int
	// properties iterates the distinct predicate IDs in the graph.
	properties(fn func(p TermID) bool)
	// err returns the first storage error encountered, if any; the map
	// backend always returns nil.
	err() error
}

// Graph is a dictionary-encoded RDF triple store with SPO, POS and OSP
// access paths, supporting pattern matching with any combination of
// bound positions. It is safe for concurrent readers; writes take an
// exclusive lock. The default graph lives in memory; OpenGraph puts the
// same structure on a persistent store.Store.
type Graph struct {
	mu   sync.RWMutex
	dict *Dictionary
	be   tripleBackend
}

// NewGraph returns an empty in-memory graph with its own dictionary.
func NewGraph() *Graph {
	return &Graph{
		dict: NewDictionary(),
		be:   newMapTriples(),
	}
}

// OpenGraph opens (or creates) a graph persisted in st under the given
// keyspace prefix. The dictionary is lazily paged: term↔ID mappings
// live in B-tree keyspaces read through the store's page cache with a
// small LRU of hot decoded terms, so open cost and resident memory are
// independent of term count. Writes become durable at the owning
// store's next Commit.
func OpenGraph(st *store.Store, prefix string) (*Graph, error) {
	dict, err := openPagedDictionary(st, prefix, 0)
	if err != nil {
		return nil, err
	}
	be, err := openStoreTriples(st, prefix)
	if err != nil {
		return nil, err
	}
	return &Graph{dict: dict, be: be}, nil
}

// OpenGraphSharedDict opens (or creates) a graph persisted in st under
// prefix that interns terms through base's dictionary instead of
// loading its own. The stored saturation uses this: G∞ shares G's
// terms almost entirely, so sharing the dictionary halves what a warm
// boot has to load — and since dictionaries only ever grow, sharing
// one across graphs is safe (it locks internally).
func OpenGraphSharedDict(st *store.Store, prefix string, base *Graph) (*Graph, error) {
	be, err := openStoreTriples(st, prefix)
	if err != nil {
		return nil, err
	}
	return &Graph{dict: base.dict, be: be}, nil
}

// StoreErr returns the first storage error the graph's backend has
// swallowed, or nil. The probe API (Contains, MatchIDs, ...) cannot
// report errors, so a store-backed graph degrades to missing answers on
// I/O failure; durable owners must check StoreErr before committing.
func (g *Graph) StoreErr() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if err := g.dict.storeErr(); err != nil {
		return err
	}
	return g.be.err()
}

// Size returns the number of distinct triples stored.
func (g *Graph) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.be.size()
}

// Add inserts the triple and reports whether it was not already present.
// Zero (invalid) terms are rejected by returning false.
func (g *Graph) Add(t Triple) bool {
	id, ok := g.intern(t)
	return ok && g.addIDs(id)
}

// AddAll inserts every triple in ts and returns how many were new. The
// batch is applied atomically with respect to concurrent readers (it is
// AddBatch without the delta).
func (g *Graph) AddAll(ts []Triple) int {
	return len(g.AddBatch(ts))
}

// AddBatch inserts every triple in ts under ONE write-lock hold and
// returns the subset that was actually new, in input order. Unlike
// AddAll — which locks per triple, so a concurrent reader can observe a
// half-applied batch — the whole batch becomes visible atomically with
// respect to any single read operation. The returned delta is what an
// incremental reasoner must propagate. Zero (invalid) terms are skipped.
func (g *Graph) AddBatch(ts []Triple) []Triple {
	// Intern outside the graph lock; the dictionary has its own.
	ids := make([]tripleID, len(ts))
	for i, t := range ts {
		ids[i], _ = g.intern(t)
	}
	var added []Triple
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, id := range ids {
		if id.s != NoTerm && g.be.add(id.s, id.p, id.o) {
			added = append(added, ts[i])
		}
	}
	return added
}

// RemoveBatch deletes every triple in ts under ONE write-lock hold and
// returns the subset that was actually present, in input order (the
// delta an incremental reasoner must retract).
func (g *Graph) RemoveBatch(ts []Triple) []Triple {
	ids := make([]tripleID, len(ts))
	found := make([]bool, len(ts))
	for i, t := range ts {
		ids[i], found[i] = g.lookup(t)
	}
	var removed []Triple
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, id := range ids {
		if found[i] && g.be.remove(id.s, id.p, id.o) {
			removed = append(removed, ts[i])
		}
	}
	return removed
}

// intern encodes t, assigning IDs to new terms; false when t has a
// zero term.
func (g *Graph) intern(t Triple) (tripleID, bool) {
	if t.S.IsZero() || t.P.IsZero() || t.O.IsZero() {
		return tripleID{}, false
	}
	return tripleID{g.dict.Intern(t.S), g.dict.Intern(t.P), g.dict.Intern(t.O)}, true
}

// lookup encodes t with existing IDs; false when a term of t was never
// interned, so t cannot be stored.
func (g *Graph) lookup(t Triple) (tripleID, bool) {
	id := tripleID{g.dict.Lookup(t.S), g.dict.Lookup(t.P), g.dict.Lookup(t.O)}
	return id, id.s != NoTerm && id.p != NoTerm && id.o != NoTerm
}

func (g *Graph) decode(t tripleID) Triple {
	return Triple{g.dict.Term(t.s), g.dict.Term(t.p), g.dict.Term(t.o)}
}

// addIDs inserts an already-encoded triple under the write lock.
func (g *Graph) addIDs(t tripleID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.be.add(t.s, t.p, t.o)
}

// Remove deletes the triple and reports whether it was present.
func (g *Graph) Remove(t Triple) bool {
	id, ok := g.lookup(t)
	if !ok {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.be.remove(id.s, id.p, id.o)
}

// Contains reports whether the triple is present.
func (g *Graph) Contains(t Triple) bool {
	id, ok := g.lookup(t)
	if !ok {
		return false
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.be.contains(id.s, id.p, id.o)
}

// MatchIDs calls fn for every stored triple matching the pattern, where
// NoTerm in any position is a wildcard. Iteration stops early if fn
// returns false. The callback runs under the graph's read lock and must
// not call write methods.
func (g *Graph) MatchIDs(s, p, o TermID, fn func(s, p, o TermID) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.be.match(s, p, o, fn)
}

// zeroAsWildcard maps a zero Term to NoTerm, otherwise looks it up. The
// second return value is false when a non-zero term is absent from the
// dictionary (so no triple can match).
func (g *Graph) zeroAsWildcard(t Term) (TermID, bool) {
	if t.IsZero() {
		return NoTerm, true
	}
	id := g.dict.Lookup(t)
	return id, id != NoTerm
}

// Match returns all triples matching the pattern; zero Terms are
// wildcards. Results are in unspecified order.
func (g *Graph) Match(s, p, o Term) []Triple {
	sid, ok := g.zeroAsWildcard(s)
	if !ok {
		return nil
	}
	pid, ok := g.zeroAsWildcard(p)
	if !ok {
		return nil
	}
	oid, ok := g.zeroAsWildcard(o)
	if !ok {
		return nil
	}
	var out []Triple
	g.MatchIDs(sid, pid, oid, func(s, p, o TermID) bool {
		out = append(out, g.decode(tripleID{s, p, o}))
		return true
	})
	return out
}

// CountMatch returns the number of triples matching the pattern without
// materializing them; zero Terms are wildcards.
func (g *Graph) CountMatch(s, p, o Term) int {
	sid, ok := g.zeroAsWildcard(s)
	if !ok {
		return 0
	}
	pid, ok := g.zeroAsWildcard(p)
	if !ok {
		return 0
	}
	oid, ok := g.zeroAsWildcard(o)
	if !ok {
		return 0
	}
	return g.countIDs(sid, pid, oid)
}

func (g *Graph) countIDs(s, p, o TermID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.be.count(s, p, o)
}

// Triples returns every stored triple, sorted lexically by their
// N-Triples rendering (deterministic for tests and serialization).
func (g *Graph) Triples() []Triple {
	ts := g.Match(Term{}, Term{}, Term{})
	sort.Slice(ts, func(i, j int) bool { return ts[i].String() < ts[j].String() })
	return ts
}

// Objects returns the distinct objects of triples with subject s and
// property p (zero Terms are wildcards).
func (g *Graph) Objects(s, p Term) []Term {
	sid, ok := g.zeroAsWildcard(s)
	if !ok {
		return nil
	}
	pid, ok := g.zeroAsWildcard(p)
	if !ok {
		return nil
	}
	seen := make(map[TermID]struct{})
	g.MatchIDs(sid, pid, NoTerm, func(_, _, o TermID) bool {
		seen[o] = struct{}{}
		return true
	})
	out := make([]Term, 0, len(seen))
	for id := range seen {
		out = append(out, g.dict.Term(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Properties returns the distinct properties used in the graph.
func (g *Graph) Properties() []Term {
	g.mu.RLock()
	var ids []TermID
	g.be.properties(func(p TermID) bool {
		ids = append(ids, p)
		return true
	})
	g.mu.RUnlock()
	out := make([]Term, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.dict.Term(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// CopyTo inserts every triple of g into dst. It is the bulk-load path
// for migrating a graph between backends (e.g. seeding a store-backed
// graph from an in-memory one).
func (g *Graph) CopyTo(dst *Graph) {
	const batch = 4096
	all := g.Match(Term{}, Term{}, Term{})
	for len(all) > 0 {
		n := min(len(all), batch)
		dst.AddBatch(all[:n])
		all = all[n:]
	}
}

// Clone returns a deep in-memory copy of the graph sharing no mutable
// state.
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	g.CopyTo(out)
	return out
}
