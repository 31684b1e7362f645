package rdf

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"tatooine/internal/lru"
	"tatooine/internal/store"
)

// TermID is a dense dictionary identifier for a Term within one Graph.
// IDs start at 1; 0 is reserved as "no term" / wildcard in index lookups.
type TermID uint32

// NoTerm is the reserved wildcard TermID.
const NoTerm TermID = 0

// Dictionary interns Terms, assigning each distinct term a dense TermID.
// It is safe for concurrent use.
//
// Two modes share the type. The in-memory mode (NewDictionary) holds
// everything in maps. The paged mode (openPagedDictionary) keeps the
// mappings on disk — a forward keyspace id(4,BE) → stored key and a
// reverse keyspace stored key → id(4,BE), both read through the
// store's page cache — with a small LRU of hot decoded terms, so
// opening a graph costs O(1) regardless of term count and resident
// memory is bounded by the cache, not the dictionary.
//
// Stored keys are prefix-compressed: IRI namespaces (through the last
// '/' or '#') are interned in an append-only table of up to 255
// entries, and a tabled IRI is stored as 'I'+tableID+local instead of
// 'i'+full IRI. A namespace is tabled no later than the first intern of
// an IRI in it (or never, once the table is full), so every term has
// exactly one stored form and a lookup is one reverse-keyspace probe.
type Dictionary struct {
	mu    sync.RWMutex
	byKey map[string]TermID // in-memory mode only
	terms []Term            // in-memory mode only; terms[id-1] is the Term for id

	// Paged mode.
	paged    bool
	firstErr error
	kv       *store.Keyspace    // id(4,BE) → stored key
	rev      *store.Keyspace    // stored key → id(4,BE)
	pfxKV    *store.Keyspace    // tableID(1) → namespace
	pfx      []string           // pfx[tableID] = namespace
	pfxByNS  map[string]int     // namespace → tableID
	nextID   TermID             // next id to assign
	hotTerm  *lru.Cache[Term]   // string(id,4,BE) → decoded Term
	hotID    *lru.Cache[TermID] // raw term key → id
}

// DefaultDictHotTerms is the paged dictionary's decoded-term LRU
// capacity (each of the two hot caches): 4096 terms.
const DefaultDictHotTerms = 4096

// maxDictPrefixes bounds the namespace table to what one byte can
// address; IRIs beyond the 255th distinct namespace store raw.
const maxDictPrefixes = 255

// NewDictionary returns an empty in-memory dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byKey: make(map[string]TermID)}
}

// openPagedDictionary opens (or creates) the lazily-paged dictionary
// stored under prefix in st. Nothing is scanned on a warm open: the
// next TermID comes from the forward keyspace's O(1) length and the
// namespace table (at most 255 entries) is the only state loaded.
func openPagedDictionary(st *store.Store, prefix string, hot int) (*Dictionary, error) {
	kv, err := st.Keyspace(prefix + "/dict")
	if err != nil {
		return nil, err
	}
	rev, err := st.Keyspace(prefix + "/dict_r")
	if err != nil {
		return nil, err
	}
	pfxKV, err := st.Keyspace(prefix + "/dict_p")
	if err != nil {
		return nil, err
	}
	if hot <= 0 {
		hot = DefaultDictHotTerms
	}
	d := &Dictionary{
		kv:      kv,
		paged:   true,
		rev:     rev,
		pfxKV:   pfxKV,
		pfxByNS: make(map[string]int),
		nextID:  TermID(kv.Len()) + 1,
		hotTerm: lru.New[Term](hot),
		hotID:   lru.New[TermID](hot),
	}
	err = pfxKV.Scan(nil, func(k, v []byte) bool {
		for int(k[0]) >= len(d.pfx) {
			d.pfx = append(d.pfx, "")
		}
		d.pfx[k[0]] = string(v)
		d.pfxByNS[string(v)] = int(k[0])
		return true
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// splitIRINamespace splits an IRI value at its last '/' or '#'
// (inclusive). An empty namespace means the IRI is not worth
// compressing.
func splitIRINamespace(v string) (ns, local string) {
	idx := strings.LastIndexAny(v, "/#")
	if idx <= 0 {
		return "", v
	}
	return v[:idx+1], v[idx+1:]
}

// storedKey returns t's stored encoding: compressed when t's namespace
// is tabled, the raw term key otherwise. Holds d.mu (read suffices).
func (d *Dictionary) storedKey(raw string, t Term) []byte {
	if t.Kind == IRI {
		if ns, local := splitIRINamespace(t.Value); ns != "" {
			if id, ok := d.pfxByNS[ns]; ok {
				comp := make([]byte, 2+len(local))
				comp[0] = 'I'
				comp[1] = byte(id)
				copy(comp[2:], local)
				return comp
			}
		}
	}
	return []byte(raw)
}

// storedKeyForInsert encodes t for a fresh intern, first adding t's
// namespace to the table when it is new and there is room. Holds d.mu
// (write).
func (d *Dictionary) storedKeyForInsert(raw string, t Term) []byte {
	if t.Kind == IRI {
		ns, _ := splitIRINamespace(t.Value)
		if _, ok := d.pfxByNS[ns]; ns != "" && !ok && len(d.pfx) < maxDictPrefixes {
			id := len(d.pfx)
			d.pfx = append(d.pfx, ns)
			d.pfxByNS[ns] = id
			if _, err := d.pfxKV.Put([]byte{byte(id)}, []byte(ns)); err != nil && d.firstErr == nil {
				d.firstErr = err
			}
		}
	}
	return d.storedKey(raw, t)
}

// decodeStoredKey inverts the stored encoding (compressed or raw).
func (d *Dictionary) decodeStoredKey(v []byte) (Term, error) {
	if len(v) >= 2 && v[0] == 'I' {
		if int(v[1]) >= len(d.pfx) || d.pfx[v[1]] == "" {
			return Term{}, fmt.Errorf("rdf: dict: unknown namespace id %d", v[1])
		}
		return NewIRI(d.pfx[v[1]] + string(v[2:])), nil
	}
	return decodeTermKey(string(v))
}

// decodeTermKey inverts Term.Key(): "i<iri>", "b<label>",
// "l<lang>\x00<datatype>\x00<value>".
func decodeTermKey(key string) (Term, error) {
	if key == "" {
		return Term{}, fmt.Errorf("rdf: dict: empty term key")
	}
	rest := key[1:]
	switch key[0] {
	case 'i':
		return NewIRI(rest), nil
	case 'b':
		return NewBlank(rest), nil
	case 'l':
		parts := strings.SplitN(rest, "\x00", 3)
		if len(parts) != 3 {
			return Term{}, fmt.Errorf("rdf: dict: malformed literal key %q", key)
		}
		return Term{Kind: Literal, Lang: parts[0], Datatype: parts[1], Value: parts[2]}, nil
	default:
		return Term{}, fmt.Errorf("rdf: dict: unknown term key kind %q", key[0])
	}
}

// Intern returns the ID for t, assigning a fresh one if t is new.
func (d *Dictionary) Intern(t Term) TermID {
	key := t.Key()
	if d.paged {
		return d.internPaged(key, t)
	}
	d.mu.RLock()
	id, ok := d.byKey[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byKey[key]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id = TermID(len(d.terms))
	d.byKey[key] = id
	return id
}

func (d *Dictionary) internPaged(key string, t Term) TermID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.hotID.Get(key); ok {
		return id
	}
	if id, ok := d.lookupPagedLocked(key, t); ok {
		d.hotID.Put(key, id)
		return id
	}
	stored := d.storedKeyForInsert(key, t)
	id := d.nextID
	d.nextID++
	var k [4]byte
	binary.BigEndian.PutUint32(k[:], uint32(id))
	if _, err := d.kv.Put(k[:], stored); err != nil && d.firstErr == nil {
		d.firstErr = err
	}
	if _, err := d.rev.Put(stored, k[:]); err != nil && d.firstErr == nil {
		d.firstErr = err
	}
	d.hotID.Put(key, id)
	d.hotTerm.Put(string(k[:]), t)
	return id
}

// lookupPagedLocked probes the reverse keyspace for t. Holds d.mu.
func (d *Dictionary) lookupPagedLocked(key string, t Term) (TermID, bool) {
	v, ok, err := d.rev.Get(d.storedKey(key, t))
	if err != nil {
		if d.firstErr == nil {
			d.firstErr = err
		}
		return NoTerm, false
	}
	if ok && len(v) == 4 {
		return TermID(binary.BigEndian.Uint32(v)), true
	}
	return NoTerm, false
}

// storeErr returns the first write-through error, if any.
func (d *Dictionary) storeErr() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.firstErr
}

// Lookup returns the ID for t, or NoTerm if t was never interned.
func (d *Dictionary) Lookup(t Term) TermID {
	key := t.Key()
	if d.paged {
		d.mu.Lock()
		defer d.mu.Unlock()
		if id, ok := d.hotID.Get(key); ok {
			return id
		}
		id, ok := d.lookupPagedLocked(key, t)
		if ok {
			d.hotID.Put(key, id)
		}
		return id
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byKey[key]
}

// Term returns the Term for id. It returns the zero Term for NoTerm or an
// out-of-range id.
func (d *Dictionary) Term(id TermID) Term {
	if id == NoTerm {
		return Term{}
	}
	if d.paged {
		var k [4]byte
		binary.BigEndian.PutUint32(k[:], uint32(id))
		d.mu.Lock()
		defer d.mu.Unlock()
		if t, ok := d.hotTerm.Get(string(k[:])); ok {
			return t
		}
		v, ok, err := d.kv.Get(k[:])
		if err != nil {
			if d.firstErr == nil {
				d.firstErr = err
			}
			return Term{}
		}
		if !ok {
			return Term{}
		}
		t, err := d.decodeStoredKey(v)
		if err != nil {
			if d.firstErr == nil {
				d.firstErr = err
			}
			return Term{}
		}
		d.hotTerm.Put(string(k[:]), t)
		return t
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) > len(d.terms) {
		return Term{}
	}
	return d.terms[id-1]
}

// Len returns the number of interned terms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.paged {
		return int(d.nextID) - 1
	}
	return len(d.terms)
}

// tripleID is a dictionary-encoded triple.
type tripleID struct {
	s, p, o TermID
}
