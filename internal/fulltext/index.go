package fulltext

import (
	"fmt"
	"sort"
	"sync"

	"tatooine/internal/doc"
	"tatooine/internal/value"
)

// FieldType describes how a document path is indexed.
type FieldType uint8

const (
	// TextField is analyzed full text (tokenized, stemmed, BM25-ranked).
	TextField FieldType = iota
	// KeywordField is matched exactly (lower-cased), e.g. hashtags,
	// screen names, codes.
	KeywordField
	// NumericField supports equality and range queries over numbers.
	NumericField
	// TimeField supports range queries over RFC3339 timestamps.
	TimeField
)

// Schema maps dotted document paths to field types. Paths absent from
// the schema are stored but not indexed.
type Schema map[string]FieldType

// posting records the occurrences of one token in one document field.
type posting struct {
	docID     int32
	positions []uint32
}

type numEntry struct {
	docID int32
	val   float64
}

// Index is an inverted-index document store, safe for concurrent use.
type Index struct {
	mu       sync.RWMutex
	name     string
	schema   Schema
	analyzer *Analyzer

	docs []*doc.Document
	byID map[string]int32

	text     map[string]map[string][]posting // text field → token → postings
	keyword  map[string]map[string][]int32   // keyword field → folded value → doc ids
	numeric  map[string][]numEntry           // numeric/time field → entries (sorted lazily)
	numDirty map[string]bool

	docLen   map[string][]uint32 // text field → per-doc token count
	totalLen map[string]uint64   // text field → total token count
}

// NewIndex creates an empty index with the given schema.
func NewIndex(name string, schema Schema) *Index {
	return &Index{
		name:     name,
		schema:   schema,
		analyzer: NewAnalyzer(),
		byID:     make(map[string]int32),
		text:     make(map[string]map[string][]posting),
		keyword:  make(map[string]map[string][]int32),
		numeric:  make(map[string][]numEntry),
		numDirty: make(map[string]bool),
		docLen:   make(map[string][]uint32),
		totalLen: make(map[string]uint64),
	}
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Schema returns the index schema.
func (ix *Index) Schema() Schema { return ix.schema }

// Analyzer returns the analyzer used for text fields.
func (ix *Index) Analyzer() *Analyzer { return ix.analyzer }

// Count returns the number of indexed documents.
func (ix *Index) Count() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Add indexes a document. Document IDs must be unique.
func (ix *Index) Add(d *doc.Document) error {
	if d.ID == "" {
		return fmt.Errorf("fulltext: document must have an ID")
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.byID[d.ID]; dup {
		return fmt.Errorf("fulltext: duplicate document ID %q", d.ID)
	}
	id := int32(len(ix.docs))
	ix.docs = append(ix.docs, d)
	ix.byID[d.ID] = id

	for path, ft := range ix.schema {
		vals := d.Values(path)
		if len(vals) == 0 {
			continue
		}
		switch ft {
		case TextField:
			var tokens []string
			for _, v := range vals {
				tokens = append(tokens, ix.analyzer.Tokens(v.String())...)
			}
			field := ix.text[path]
			if field == nil {
				field = make(map[string][]posting)
				ix.text[path] = field
			}
			perTok := make(map[string][]uint32)
			for pos, t := range tokens {
				perTok[t] = append(perTok[t], uint32(pos))
			}
			for t, positions := range perTok {
				field[t] = append(field[t], posting{docID: id, positions: positions})
			}
			for len(ix.docLen[path]) < int(id) {
				ix.docLen[path] = append(ix.docLen[path], 0)
			}
			ix.docLen[path] = append(ix.docLen[path], uint32(len(tokens)))
			ix.totalLen[path] += uint64(len(tokens))
		case KeywordField:
			field := ix.keyword[path]
			if field == nil {
				field = make(map[string][]int32)
				ix.keyword[path] = field
			}
			seen := make(map[string]struct{})
			for _, v := range vals {
				k := Fold(v.String())
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				field[k] = append(field[k], id)
			}
		case NumericField, TimeField:
			for _, v := range vals {
				var f float64
				switch v.Kind() {
				case value.Int, value.Float:
					f = v.Float()
				case value.Time:
					f = float64(v.Time().UnixNano())
				case value.String:
					coerced, ok := value.Coerce(v, value.Time)
					if ft == TimeField && ok {
						f = float64(coerced.Time().UnixNano())
						break
					}
					cn, ok := value.Coerce(v, value.Float)
					if !ok {
						continue
					}
					f = cn.Float()
				default:
					continue
				}
				ix.numeric[path] = append(ix.numeric[path], numEntry{docID: id, val: f})
				ix.numDirty[path] = true
			}
		}
	}
	return nil
}

// AddJSON decodes and indexes a JSON document.
func (ix *Index) AddJSON(id string, data []byte) error {
	d, err := doc.FromJSON(id, data)
	if err != nil {
		return err
	}
	return ix.Add(d)
}

// Get returns the document with the given ID, or nil.
func (ix *Index) Get(id string) *doc.Document {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	i, ok := ix.byID[id]
	if !ok {
		return nil
	}
	return ix.docs[i]
}

// Each calls fn for every document until fn returns false.
func (ix *Index) Each(fn func(d *doc.Document) bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, d := range ix.docs {
		if !fn(d) {
			return
		}
	}
}

// sortedNumeric returns the numeric entries for a field sorted by value.
func (ix *Index) sortedNumeric(field string) []numEntry {
	if ix.numDirty[field] {
		entries := ix.numeric[field]
		sort.Slice(entries, func(i, j int) bool { return entries[i].val < entries[j].val })
		ix.numDirty[field] = false
	}
	return ix.numeric[field]
}

// FieldTerms returns the distinct tokens (text fields) or folded values
// (keyword fields) of a field, sorted; used by digests.
func (ix *Index) FieldTerms(field string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []string
	if m, ok := ix.text[field]; ok {
		for t := range m {
			out = append(out, t)
		}
	} else if m, ok := ix.keyword[field]; ok {
		for v := range m {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// KeywordCount returns the length of the posting list a KeywordQuery for
// value in field reads, or -1 when the field is not in the schema.
func (ix *Index) KeywordCount(field, value string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if _, declared := ix.schema[field]; !declared {
		return -1
	}
	return len(ix.keyword[field][Fold(value)])
}

// DocFreq returns how many documents contain the analyzed token in the
// text field.
func (ix *Index) DocFreq(field, token string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	m, ok := ix.text[field]
	if !ok {
		return 0
	}
	return len(m[token])
}

// TermCounts accumulates token → occurrence count over the text field of
// the given documents (all documents when ids is nil). It is the raw
// material for the PMI analytics of the paper's scenario (2).
func (ix *Index) TermCounts(field string, ids []string) (map[string]int, int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	counts := make(map[string]int)
	total := 0
	add := func(docID int32) {
		d := ix.docs[docID]
		for _, v := range d.Values(field) {
			for _, t := range ix.analyzer.Tokens(v.String()) {
				counts[t]++
				total++
			}
		}
	}
	if ids == nil {
		for i := range ix.docs {
			add(int32(i))
		}
		return counts, total
	}
	for _, id := range ids {
		if i, ok := ix.byID[id]; ok {
			add(i)
		}
	}
	return counts, total
}

// fieldKind reports the declared type of a field.
func (ix *Index) fieldKind(field string) (FieldType, bool) {
	ft, ok := ix.schema[field]
	return ft, ok
}
