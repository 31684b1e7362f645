package digest

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"tatooine/internal/value"
)

// Budget controls how much space a digest spends per node (§2.2: "the
// precision level of the value set representations is controlled by
// parameters dividing up the available space").
type Budget struct {
	// BloomBits is the Bloom filter size per node, in bits.
	BloomBits uint64
	// BloomHashes is the number of hash functions.
	BloomHashes int
	// HistBuckets is the histogram resolution for numeric nodes.
	HistBuckets int
	// ExactThreshold keeps the exact value set when a node has at most
	// this many distinct values (0 disables exact sets).
	ExactThreshold int
	// SampleSize keeps up to this many sample values per node for
	// cross-source overlap testing and query generation.
	SampleSize int
}

// DefaultBudget is a balanced configuration.
func DefaultBudget() Budget {
	return Budget{
		BloomBits:      8192,
		BloomHashes:    5,
		HistBuckets:    32,
		ExactThreshold: 64,
		SampleSize:     32,
	}
}

// Normalize canonicalizes a value or keyword for digest matching:
// lower-case, accents folded, camelCase split, non-alphanumerics
// removed. "head of state", "headOfState" and "HEAD-OF-STATE" all
// normalize to "headofstate"; IRIs are reduced to their local name
// first ("http://x/headOfState" → "headofstate").
func Normalize(s string) string {
	s = localName(s)
	if normalized(s) {
		return s
	}
	// Split camelCase by inserting nothing (we only strip): the
	// character classes below keep letters and digits.
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return foldASCII(b.String())
}

// normalized reports whether Normalize leaves s as it is, so it need
// not be rebuilt: every rune is a lower-case letter or a digit that
// foldASCII keeps.
func normalized(s string) bool {
	for _, r := range s {
		if r < utf8.RuneSelf {
			if ('a' > r || r > 'z') && ('0' > r || r > '9') {
				return false
			}
			continue
		}
		if _, fold := foldTable[r]; fold || !(unicode.IsLetter(r) || unicode.IsDigit(r)) || unicode.ToLower(r) != r {
			return false
		}
	}
	return true
}

// localName strips an IRI prefix up to the last '/' or '#'.
func localName(s string) string {
	if !strings.Contains(s, "://") && !strings.HasPrefix(s, "urn:") {
		return s
	}
	if i := strings.LastIndexAny(s, "/#"); i >= 0 && i+1 < len(s) {
		return s[i+1:]
	}
	return s
}

// foldTable maps each diacritic foldASCII strips to its ASCII
// spelling.
var foldTable = map[rune]string{
	'à': "a", 'â': "a", 'ä': "a", 'é': "e", 'è': "e", 'ê': "e", 'ë': "e",
	'î': "i", 'ï': "i", 'ô': "o", 'ö': "o", 'ù': "u", 'û': "u", 'ü': "u",
	'ç': "c", 'œ': "oe",
}

// foldASCII strips common diacritics (shared logic with the full-text
// analyzer, duplicated to keep the package dependency-light). An ASCII
// string has none and is returned as it is.
func foldASCII(s string) string {
	ascii := true
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if out, ok := foldTable[r]; ok {
			b.WriteString(out)
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// ValueSet is the per-node representation of the atomic values
// associated with one schema position.
type ValueSet struct {
	bloom        *Bloom
	hist         *Histogram
	exact        map[string]struct{}
	samples      []string
	originals    map[string]string   // normalized → first original form
	distinct     map[string]struct{} // tracked until exact threshold passes
	numeric      []float64
	numericCount int
	timeCount    int
	budget       Budget
	count        int
}

// NewValueSet creates an empty value set under the budget.
func NewValueSet(b Budget) *ValueSet {
	return &ValueSet{
		bloom:     NewBloomWithBits(b.BloomBits, b.BloomHashes),
		exact:     make(map[string]struct{}),
		originals: make(map[string]string),
		distinct:  make(map[string]struct{}),
		budget:    b,
	}
}

// Add records one value.
func (vs *ValueSet) Add(v value.Value) {
	if v.IsNull() {
		return
	}
	key := Normalize(v.String())
	if key == "" {
		return
	}
	vs.count++
	vs.bloom.Add(key)
	if _, seen := vs.distinct[key]; !seen {
		vs.distinct[key] = struct{}{}
		if len(vs.samples) < vs.budget.SampleSize {
			vs.samples = append(vs.samples, key)
		}
	}
	// Keep the original spelling of a bounded number of values so the
	// keyword engine can generate executable queries from digest hits.
	keepOriginals := vs.budget.ExactThreshold
	if vs.budget.SampleSize > keepOriginals {
		keepOriginals = vs.budget.SampleSize
	}
	if len(vs.originals) < keepOriginals*4 {
		if _, ok := vs.originals[key]; !ok {
			vs.originals[key] = v.String()
		}
	}
	if vs.budget.ExactThreshold > 0 {
		if len(vs.exact) <= vs.budget.ExactThreshold {
			vs.exact[key] = struct{}{}
		}
	}
	switch v.Kind() {
	case value.Int, value.Float:
		vs.numeric = append(vs.numeric, v.Float())
		vs.numericCount++
	case value.Time:
		vs.timeCount++
	case value.String:
		// Sources often store timestamps and numbers as strings
		// (Figure 2's created_at); classify them so textual keyword
		// probes don't false-positive against them. The first-byte
		// check keeps the common textual-token path cheap.
		if s := v.Str(); s != "" && (s[0] >= '0' && s[0] <= '9' || s[0] == '-' || s[0] == '+') {
			if _, ok := value.Coerce(v, value.Time); ok {
				vs.timeCount++
			} else if _, ok := value.Coerce(v, value.Float); ok {
				vs.numericCount++
			}
		}
	}
}

// NumericOnly reports whether every added value was numeric or
// temporal; membership probes with textual keywords on such sets are
// rejected (they could only be Bloom false positives).
func (vs *ValueSet) NumericOnly() bool {
	return vs.count > 0 && vs.numericCount+vs.timeCount == vs.count
}

// Seal finalizes the representation (builds the histogram, drops exact
// sets that exceeded the threshold). Call once after loading.
func (vs *ValueSet) Seal() {
	if len(vs.numeric) > 0 {
		vs.hist = NewEquiDepth(vs.numeric, vs.budget.HistBuckets)
		vs.numeric = nil
	}
	if vs.budget.ExactThreshold == 0 || len(vs.exact) > vs.budget.ExactThreshold {
		vs.exact = nil
	}
	vs.distinct = nil
}

// MayContain reports whether the normalized keyword may appear in the
// value set (exact when the exact set survived, Bloom otherwise).
// Textual keywords never match purely numeric/temporal sets: such hits
// could only be Bloom false positives.
func (vs *ValueSet) MayContain(keyword string) bool {
	key := Normalize(keyword)
	if key == "" {
		return false
	}
	if vs.NumericOnly() && !isNumericKeyword(key) {
		return false
	}
	if vs.exact != nil {
		_, ok := vs.exact[key]
		return ok
	}
	return vs.bloom.MayContain(key)
}

func isNumericKeyword(key string) bool {
	if key == "" {
		return false
	}
	for _, r := range key {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Exact reports whether membership answers are exact (no false
// positives).
func (vs *ValueSet) Exact() bool { return vs.exact != nil }

// Original returns the stored original spelling for a keyword whose
// normalized form is in the value set ("headofstate" →
// "http://t.example/headOfState"), when the bounded original store
// still holds it.
func (vs *ValueSet) Original(keyword string) (string, bool) {
	v, ok := vs.originals[Normalize(keyword)]
	return v, ok
}

// Count returns the number of values added.
func (vs *ValueSet) Count() int { return vs.count }

// DistinctEstimate estimates the number of distinct values: exact when
// the exact set survived the budget, otherwise recovered from the
// Bloom filter's fill ratio. Zero only for an empty set.
func (vs *ValueSet) DistinctEstimate() int {
	if vs.count == 0 {
		return 0
	}
	if vs.exact != nil {
		return len(vs.exact)
	}
	// Pre-Seal, the tracked distinct map is still authoritative.
	if vs.distinct != nil {
		return len(vs.distinct)
	}
	if vs.bloom != nil {
		if est := vs.bloom.EstimatedDistinct(); est > 0 {
			return est
		}
	}
	return 1
}

// Histogram returns the numeric histogram, or nil.
func (vs *ValueSet) Histogram() *Histogram { return vs.hist }

// OverlapEstimate estimates the fraction of a's values present in b by
// probing b with a's samples; used to discover cross-source join
// edges. When b answers through a Bloom filter, the raw hit rate is
// corrected for b's expected false-positive rate (a saturated filter
// over a large token set would otherwise claim overlap with
// everything).
func OverlapEstimate(a, b *ValueSet) float64 {
	if a == nil || b == nil || len(a.samples) == 0 {
		return 0
	}
	hits := 0
	for _, s := range a.samples {
		if b.MayContain(s) {
			hits++
		}
	}
	frac := float64(hits) / float64(len(a.samples))
	if !b.Exact() {
		fpr := b.bloom.EstimatedFPR()
		if fpr >= 1 {
			return 0
		}
		frac = (frac - fpr) / (1 - fpr)
		if frac < 0 {
			frac = 0
		}
	}
	return frac
}
