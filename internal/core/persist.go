package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"tatooine/internal/rdf"
	"tatooine/internal/reason"
	"tatooine/internal/store"
)

// This file is the durable side of Instance: a persistent instance
// keeps the custom graph G, the materialized saturation G∞, the
// mutation epoch and registered-source metadata in one store.Store
// (paged B-trees + WAL), committing them in a single WAL transaction
// per mutation. A process crash between commits rolls the whole
// catalog back to the last committed mutation — epoch, G and G∞ can
// never diverge from each other — and reopening is a warm start: the
// saturation is adopted as-is instead of recomputed.

// DataFileName is the store file created inside a persistent
// instance's data directory (the WAL lives next to it).
const DataFileName = "tatooine.db"

// Catalog keys (keyspace "cat").
const (
	catEpochKey  = "epoch"  // u64 BE: mutation epoch
	catSatGenKey = "satgen" // u64 BE: live saturation generation (0 = none)
	catSrcPrefix = "src/"   // + uri: JSON SourceMeta
)

// SourceMeta is the durable description of a registered source. Live
// DataSource objects (indexes, databases, HTTP clients) are rebuilt by
// the embedding application on boot; the catalog remembers what was
// registered so a warm start can verify or re-resolve them.
type SourceMeta struct {
	URI   string `json:"uri"`
	Model string `json:"model"`
}

// Open opens (or initializes) a persistent instance rooted at dir. The
// custom graph, its saturation, the epoch and source metadata load
// from dir/tatooine.db; a missing file starts an empty instance.
// Options apply as in NewInstance. With WithSaturation, a stored
// saturation is adopted without recompute (the warm-restart path);
// full-resaturation mode ignores any stored saturation.
func Open(dir string, opts ...InstanceOption) (*Instance, error) {
	// Store options (page-cache budget, auto-vacuum tuning) must be
	// known before the store opens, so probe the option list first.
	probe := &Instance{prefixes: make(map[string]string)}
	for _, o := range opts {
		o(probe)
	}
	st, err := store.Open(filepath.Join(dir, DataFileName), probe.storeOpts)
	if err != nil {
		return nil, err
	}
	in, err := openWithStore(st, opts...)
	if err != nil {
		st.Close()
		return nil, err
	}
	return in, nil
}

func openWithStore(st store.Store, opts ...InstanceOption) (*Instance, error) {
	cat, err := st.Keyspace("cat")
	if err != nil {
		return nil, err
	}
	g, err := rdf.OpenGraph(st, "g")
	if err != nil {
		return nil, err
	}
	in := NewInstance(g, opts...)
	in.st = st
	in.cat = cat

	if v, ok, err := catGet(cat, catEpochKey); err != nil {
		return nil, err
	} else if ok {
		in.epoch.Store(v)
	}
	if v, ok, err := catGet(cat, catSatGenKey); err != nil {
		return nil, err
	} else if ok {
		in.satGen = v
	}
	if err := in.dropStaleSatLocked(); err != nil {
		return nil, err
	}

	// Warm-start the reasoner: a stored saturation generation means G∞
	// was committed consistent with G and the epoch, so adopt it as-is.
	// Generations share the base graph's dictionary (their triples are
	// keyed by its TermIDs), so no second dictionary load happens here.
	if in.saturate && in.satGen > 0 {
		sat, err := rdf.OpenGraphSharedDict(st, satPrefix(in.satGen), g)
		if err != nil {
			return nil, err
		}
		in.engine = reason.Adopt(g, sat, reason.Config{SatFactory: in.satFactory})
	}
	return in, nil
}

func catGet(cat store.KV, key string) (uint64, bool, error) {
	v, ok, err := cat.Get([]byte(key))
	if err != nil || !ok {
		return 0, false, err
	}
	if len(v) != 8 {
		return 0, false, fmt.Errorf("core: catalog key %q: malformed value", key)
	}
	return binary.BigEndian.Uint64(v), true, nil
}

func satPrefix(gen uint64) string { return fmt.Sprintf("sat%d", gen) }

// satFactory hands the reasoner a fresh store-backed graph for each
// full rebuild. Generations are numbered so readers holding the
// previous G∞ keep a valid snapshot: queryGraph hands out graph
// pointers that outlive satMu, so the generation superseded by THIS
// rebuild cannot have its pages freed yet — a long query could still
// be iterating it. Instead it is parked in pendingSatDrop and dropped
// (pages returned to the pager free list) at the NEXT full rebuild,
// by which point any reader of the parked generation would have had
// to span two complete rebuilds. Boot drops stragglers (see
// dropStaleSatLocked). Errors degrade to an in-memory saturation:
// answers stay correct, persistence of G∞ resumes at the next
// successful rebuild. Called with satMu held (all engine entry points
// take it).
func (in *Instance) satFactory() *rdf.Graph {
	old := in.satGen
	gen := old + 1
	g, err := rdf.OpenGraphSharedDict(in.st, satPrefix(gen), in.graph)
	if err != nil {
		in.noteStoreErrLocked(err)
		return rdf.NewGraph()
	}
	in.satGen = gen
	if in.pendingSatDrop > 0 {
		in.dropSatGenLocked(in.pendingSatDrop)
	}
	in.pendingSatDrop = old
	return g
}

// dropSatGenLocked removes a saturation generation's keyspaces,
// returning their pages to the pager free list.
func (in *Instance) dropSatGenLocked(gen uint64) {
	for _, ks := range []string{"/spo", "/pos", "/osp"} {
		if err := in.st.DropKeyspace(satPrefix(gen) + ks); err != nil {
			in.noteStoreErrLocked(err)
		}
	}
}

// dropStaleSatLocked reclaims saturation generations other than the
// live one at boot — generations parked by satFactory in a previous
// process, or left by a crash mid-rebuild. No queries exist yet, so
// freeing is safe.
func (in *Instance) dropStaleSatLocked() error {
	live := satPrefix(in.satGen)
	for _, name := range in.st.Keyspaces() {
		if !strings.HasPrefix(name, "sat") {
			continue
		}
		slash := strings.IndexByte(name, '/')
		if slash < 0 || name[:slash] == live {
			continue
		}
		if _, err := strconv.ParseUint(name[3:slash], 10, 64); err != nil {
			continue
		}
		if err := in.st.DropKeyspace(name); err != nil {
			return err
		}
	}
	return nil
}

// persistLocked writes the epoch and saturation generation to the
// catalog and commits the store — one WAL transaction covering every
// page the mutation dirtied (graph indexes, dictionary, saturation,
// catalog, and any other keyspace on the same store). Callers hold
// satMu. Errors are sticky (StoreErr) rather than returned: the
// in-memory state is already mutated and correct, so the instance
// keeps serving; only durability is degraded.
func (in *Instance) persistLocked() {
	if in.st == nil {
		return
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], in.epoch.Load())
	if _, err := in.cat.Put([]byte(catEpochKey), b[:]); err != nil {
		in.noteStoreErrLocked(err)
		return
	}
	binary.BigEndian.PutUint64(b[:], in.satGen)
	if _, err := in.cat.Put([]byte(catSatGenKey), b[:]); err != nil {
		in.noteStoreErrLocked(err)
		return
	}
	if err := in.graph.StoreErr(); err != nil {
		in.noteStoreErrLocked(err)
		return
	}
	if err := in.st.Commit(); err != nil {
		in.noteStoreErrLocked(err)
	}
}

func (in *Instance) noteStoreErrLocked(err error) {
	if in.stErr == nil {
		in.stErr = err
	}
}

// StoreErr returns the first storage error a persistent instance has
// encountered (failed commit, failed write-through), or nil. In-memory
// instances always return nil.
func (in *Instance) StoreErr() error {
	in.satMu.Lock()
	defer in.satMu.Unlock()
	return in.stErr
}

// Persistent reports whether the instance is backed by a store.
func (in *Instance) Persistent() bool { return in.st != nil }

// Store exposes the instance's backing store so the embedding
// application can co-locate more state (e.g. relstore databases) in
// the same WAL transactions. Nil for in-memory instances.
func (in *Instance) Store() store.Store { return in.st }

// StoreStats snapshots the backing store's counters (the /stats
// "store" block). Nil for in-memory instances.
func (in *Instance) StoreStats() *store.Stats {
	if in.st == nil {
		return nil
	}
	s := in.st.Stats()
	return &s
}

// Checkpoint commits pending state and folds the WAL into the main
// file. Useful before backups and called by Close.
func (in *Instance) Checkpoint() error {
	if in.st == nil {
		return nil
	}
	in.satMu.Lock()
	defer in.satMu.Unlock()
	in.persistLocked()
	if in.stErr != nil {
		return in.stErr
	}
	return in.st.Checkpoint()
}

// Close commits and checkpoints a persistent instance, then closes the
// store. In-memory instances are a no-op. The instance must not be
// used afterwards.
func (in *Instance) Close() error {
	if in.st == nil {
		return nil
	}
	in.satMu.Lock()
	in.persistLocked()
	err := in.stErr
	in.satMu.Unlock()
	if cerr := in.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// persistSourceLocked records (or clears) a source's catalog metadata.
func (in *Instance) persistSourceLocked(uri, model string, drop bool) {
	if in.st == nil {
		return
	}
	key := []byte(catSrcPrefix + uri)
	if drop {
		if _, err := in.cat.Delete(key); err != nil {
			in.noteStoreErrLocked(err)
		}
		return
	}
	buf, err := json.Marshal(SourceMeta{URI: uri, Model: model})
	if err != nil {
		in.noteStoreErrLocked(err)
		return
	}
	if _, err := in.cat.Put(key, buf); err != nil {
		in.noteStoreErrLocked(err)
	}
}

// PersistedSources lists the source metadata stored in the catalog, in
// URI order. Empty for in-memory instances.
func (in *Instance) PersistedSources() ([]SourceMeta, error) {
	if in.st == nil {
		return nil, nil
	}
	var out []SourceMeta
	var loadErr error
	err := in.cat.Scan([]byte(catSrcPrefix), func(_, v []byte) bool {
		var m SourceMeta
		if err := json.Unmarshal(v, &m); err != nil {
			loadErr = fmt.Errorf("core: corrupt source metadata: %v", err)
			return false
		}
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, loadErr
}
