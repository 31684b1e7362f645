package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"

	"tatooine/internal/rdf"
	"tatooine/internal/reason"
	"tatooine/internal/store"
)

// This file is the durable side of Instance: a persistent instance
// keeps the custom graph G, the materialized saturation G∞ and the
// mutation epoch in one store.Store (paged B-trees + WAL), committing
// them in a single WAL transaction per mutation. The store holds one
// copy of each: G under keyspace prefix "g", G∞ under "sat" (sharing
// G's dictionary, maintained in place by the reasoner) and the catalog
// "cat". A process crash between commits rolls the whole store back to
// the last committed mutation — epoch, G and G∞ can never diverge from
// each other — and reopening is a warm start: the saturation is
// adopted as-is instead of recomputed.

// DataFileName is the store file created inside a persistent
// instance's data directory (the WAL lives next to it).
const DataFileName = "tatooine.db"

// Catalog keys (keyspace "cat"), each a u64 BE. Stores written before
// "format" existed carry "epoch" without it and are refused, not
// migrated.
const (
	catFormatKey = "format" // layout version: storeFormat
	catEpochKey  = "epoch"  // mutation epoch
	catSatKey    = "sat"    // 1 when the stored G∞ is the committed saturation of G
	storeFormat  = 2
)

// Open opens (or initializes) a persistent instance rooted at dir. The
// custom graph, its saturation and the epoch load from
// dir/tatooine.db; a missing file starts an empty instance. A store
// written in another layout is refused. Options apply as in
// NewInstance. With WithSaturation, a committed stored saturation is
// adopted without recompute (the warm-restart path); otherwise the
// first saturated query rebuilds the stored G∞ in place.
func Open(dir string, opts ...InstanceOption) (_ *Instance, err error) {
	// Store options (page-cache budget, auto-vacuum tuning) must be
	// known before the store opens, so probe the option list first.
	probe := &Instance{prefixes: make(map[string]string)}
	for _, o := range opts {
		o(probe)
	}
	path := filepath.Join(dir, DataFileName)
	st, err := store.Open(path, probe.storeOpts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	cat, err := st.Keyspace("cat")
	if err != nil {
		return nil, err
	}
	// Check the layout before anything else is written, so a refused
	// store closes with nothing committed and its file unchanged.
	format, ok, err := catGet(cat, catFormatKey)
	if err != nil {
		return nil, err
	}
	if ok && format != storeFormat || !ok && cat.Len() > 0 {
		return nil, fmt.Errorf("core: %s is not in store format %d (an older version wrote it); delete the data directory %s to start over",
			path, storeFormat, dir)
	}
	if err := catPut(cat, catFormatKey, storeFormat); err != nil {
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
	// Warm-start the reasoner: a committed G∞ is consistent with G and
	// the epoch, so adopt it as-is. It shares G's dictionary (its
	// triples are keyed by G's TermIDs), so no second dictionary loads.
	if v, _, err := catGet(cat, catSatKey); err != nil {
		return nil, err
	} else if in.saturate && v == 1 {
		sat, err := rdf.OpenGraphSharedDict(st, "sat", g)
		if err != nil {
			return nil, err
		}
		in.engine = reason.Adopt(g, sat, reason.Config{})
	}
	return in, nil
}

// newEngineLocked builds the reasoner at the first saturated query. A
// persistent instance adopts its stored G∞ (empty, or left stale by a
// run without saturation) and rebuilds it in place; a store error
// degrades to an in-memory saturation. Called with satMu held.
func (in *Instance) newEngineLocked() *reason.Engine {
	if in.st != nil {
		sat, err := rdf.OpenGraphSharedDict(in.st, "sat", in.graph)
		if err == nil {
			e := reason.Adopt(in.graph, sat, reason.Config{})
			e.Rebuild()
			return e
		}
		in.noteStoreErrLocked(err)
	}
	return reason.New(in.graph, reason.Config{})
}

func catGet(cat *store.Keyspace, key string) (uint64, bool, error) {
	v, ok, err := cat.Get([]byte(key))
	if err != nil || !ok {
		return 0, false, err
	}
	if len(v) != 8 {
		return 0, false, fmt.Errorf("core: catalog key %q: malformed value", key)
	}
	return binary.BigEndian.Uint64(v), true, nil
}

func catPut(cat *store.Keyspace, key string, v uint64) error {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	_, err := cat.Put([]byte(key), b[:])
	return err
}

// persistLocked writes the epoch and the saturation flag to the
// catalog and commits the store — one WAL transaction covering every
// page the mutation dirtied (graph indexes, dictionary, saturation and
// catalog). The flag is set only while a reasoner maintains the stored
// G∞ and no storage error has been seen; a run without saturation
// clears it, since its mutations leave G∞ behind. Callers hold satMu.
// Errors are sticky (StoreErr) rather than returned: the in-memory
// state is already mutated and correct, so the instance keeps serving;
// only durability is degraded.
func (in *Instance) persistLocked() {
	if in.st == nil {
		return
	}
	var sat uint64
	if in.engine != nil && in.stErr == nil {
		sat = 1
	}
	err := errors.Join(catPut(in.cat, catEpochKey, in.epoch.Load()), catPut(in.cat, catSatKey, sat),
		in.graph.StoreErr())
	if err == nil && in.engine != nil {
		err = in.engine.Graph().StoreErr()
	}
	if err == nil {
		err = in.st.Commit()
	}
	if err != nil {
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

// StoreStats snapshots the backing store's counters (the /stats
// "store" block). Nil for in-memory instances.
func (in *Instance) StoreStats() *store.Stats {
	if in.st == nil {
		return nil
	}
	s := in.st.Stats()
	return &s
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
