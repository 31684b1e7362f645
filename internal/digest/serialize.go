package digest

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// Wire formats: digests travel between federation endpoints and
// mediators, so every component (Bloom filter bits included) has a
// JSON encoding. Decoded digests answer Lookup/MayContain/Original
// exactly like locally built ones.
//
// Every encoded digest and bloom carries a version field ("v"). A
// mediator that decodes a digest from a peer speaking a different
// version keeps it for keyword search but refuses to prune with it
// (Digest.PruneCapable), and a bloom decoded at an unknown version
// degrades to a filter whose MayContain always answers true — older
// peers therefore lose the optimization, never answers.
//
// Decoding at this version checks what the planner and the pruners
// later walk: a bloom k outside [1, maxBloomHashes], a negative value
// count, or a histogram whose bounds and counts do not line up fails the
// decode instead of panicking or stalling a query.

// WireVersion is the digest wire-format version this build speaks.
// Bump it whenever hash functions, normalization, or bit layout
// change in a way that would make cross-version membership tests lie.
const WireVersion = 1

type wireBloom struct {
	V      int    `json:"v"`
	M      uint64 `json:"m"`
	K      int    `json:"k"`
	Added  int    `json:"added"`
	Bits64 string `json:"bits"` // base64 of little-endian uint64 words
}

type wireHistogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int     `json:"counts"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
}

type wireValueSet struct {
	Count        int               `json:"count"`
	NumericCount int               `json:"numericCount"`
	TimeCount    int               `json:"timeCount"`
	Exact        []string          `json:"exact,omitempty"`
	Samples      []string          `json:"samples,omitempty"`
	Originals    map[string]string `json:"originals,omitempty"`
	Bloom        *wireBloom        `json:"bloom,omitempty"`
	Hist         *wireHistogram    `json:"hist,omitempty"`
}

type wireNode struct {
	ID       string        `json:"id"`
	Source   string        `json:"source"`
	Label    string        `json:"label"`
	Kind     uint8         `json:"kind"`
	Analyzed bool          `json:"analyzed,omitempty"`
	Values   *wireValueSet `json:"values,omitempty"`
}

type wireDigest struct {
	V      int        `json:"v"`
	Source string     `json:"source"`
	Nodes  []wireNode `json:"nodes"`
	Edges  []Edge     `json:"edges"`
}

// MarshalJSON implements json.Marshaler for Bloom.
func (b *Bloom) MarshalJSON() ([]byte, error) { return json.Marshal(b.toWire()) }

// toWire encodes b. A pass-through filter (k = 0, decoded from another
// wire version) keeps no version: it decodes as pass-through again,
// where a current-version filter without hashes would be refused.
func (b *Bloom) toWire() *wireBloom {
	raw := make([]byte, 8*len(b.bits))
	for i, w := range b.bits {
		binary.LittleEndian.PutUint64(raw[i*8:], w)
	}
	w := &wireBloom{
		V:      WireVersion,
		M:      b.m,
		K:      b.k,
		Added:  b.nAdded,
		Bits64: base64.StdEncoding.EncodeToString(raw),
	}
	if b.k == 0 {
		w.V = 0
	}
	return w
}

// UnmarshalJSON implements json.Unmarshaler for Bloom. A bloom encoded
// at a different wire version decodes to a pass-through filter (every
// MayContain answers true): membership bits hashed under another
// scheme must never be trusted to say "absent".
func (b *Bloom) UnmarshalJSON(data []byte) error {
	var w wireBloom
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	return b.fromWire(&w)
}

func (b *Bloom) fromWire(w *wireBloom) error {
	if w.V != WireVersion {
		*b = Bloom{bits: make([]uint64, 1), m: 64, k: 0, nAdded: w.Added}
		return nil
	}
	// MayContain loops k times and stops early only on a zero bit, so an
	// unbounded k over an all-ones filter would stall whoever probes it.
	if w.K < 1 || w.K > maxBloomHashes {
		return fmt.Errorf("digest: bloom k=%d outside [1, %d]", w.K, maxBloomHashes)
	}
	raw, err := base64.StdEncoding.DecodeString(w.Bits64)
	if err != nil {
		return fmt.Errorf("digest: bloom bits: %w", err)
	}
	if len(raw)%8 != 0 || uint64(len(raw))*8 < w.M {
		return fmt.Errorf("digest: bloom bits length %d inconsistent with m=%d", len(raw), w.M)
	}
	b.m = w.M
	b.k = w.K
	b.nAdded = w.Added
	b.bits = make([]uint64, len(raw)/8)
	for i := range b.bits {
		b.bits[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return nil
}

func (vs *ValueSet) toWire() *wireValueSet {
	if vs == nil {
		return nil
	}
	w := &wireValueSet{
		Count:        vs.count,
		NumericCount: vs.numericCount,
		TimeCount:    vs.timeCount,
		Samples:      vs.samples,
		Originals:    vs.originals,
	}
	if vs.exact != nil {
		for k := range vs.exact {
			w.Exact = append(w.Exact, k)
		}
	}
	if vs.bloom != nil {
		w.Bloom = vs.bloom.toWire()
	}
	if vs.hist != nil {
		w.Hist = &wireHistogram{
			Bounds: vs.hist.Bounds,
			Counts: vs.hist.Counts,
			Min:    vs.hist.Min,
			Max:    vs.hist.Max,
			N:      vs.hist.N,
		}
	}
	return w
}

func valueSetFromWire(w *wireValueSet) (*ValueSet, error) {
	if w == nil {
		return nil, nil
	}
	if w.Count < 0 || w.NumericCount < 0 || w.TimeCount < 0 {
		return nil, fmt.Errorf("digest: negative value count")
	}
	if err := w.Hist.check(); err != nil {
		return nil, err
	}
	vs := &ValueSet{
		count:        w.Count,
		numericCount: w.NumericCount,
		timeCount:    w.TimeCount,
		samples:      w.Samples,
		originals:    w.Originals,
	}
	if len(w.Exact) > 0 {
		vs.exact = make(map[string]struct{}, len(w.Exact))
		for _, k := range w.Exact {
			vs.exact[k] = struct{}{}
		}
	}
	if w.Bloom != nil {
		vs.bloom = &Bloom{}
		if err := vs.bloom.fromWire(w.Bloom); err != nil {
			return nil, err
		}
	}
	if w.Hist != nil {
		vs.hist = &Histogram{
			Bounds: w.Hist.Bounds,
			Counts: w.Hist.Counts,
			Min:    w.Hist.Min,
			Max:    w.Hist.Max,
			N:      w.Hist.N,
		}
	}
	return vs, nil
}

// check refuses a histogram that EstimateRange and MayContain could not
// walk safely: one count per bucket, at least one bucket, finite
// non-decreasing bounds, no negative counts, and Min ≤ Max.
func (h *wireHistogram) check() error {
	if h == nil {
		return nil
	}
	if len(h.Bounds) < 2 || len(h.Bounds) != len(h.Counts)+1 {
		return fmt.Errorf("digest: histogram has %d bounds for %d counts", len(h.Bounds), len(h.Counts))
	}
	for i, b := range h.Bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || i > 0 && b < h.Bounds[i-1] {
			return fmt.Errorf("digest: histogram bound %d (%g) is not finite and non-decreasing", i, b)
		}
	}
	for _, c := range h.Counts {
		if c < 0 {
			return fmt.Errorf("digest: histogram count %d is negative", c)
		}
	}
	if h.N < 0 || !(h.Min <= h.Max) {
		return fmt.Errorf("digest: histogram n=%d min=%g max=%g is inconsistent", h.N, h.Min, h.Max)
	}
	return nil
}

// MarshalJSON implements json.Marshaler for Digest. The current
// WireVersion is always stamped: locally built digests are by
// definition this build's format.
func (d *Digest) MarshalJSON() ([]byte, error) {
	w := wireDigest{V: WireVersion, Source: d.Source, Edges: d.Edges}
	for _, n := range d.NodeList() {
		w.Nodes = append(w.Nodes, wireNode{
			ID:       n.ID,
			Source:   n.Source,
			Label:    n.Label,
			Kind:     uint8(n.Kind),
			Analyzed: n.Analyzed,
			Values:   n.Values.toWire(),
		})
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler for Digest. A digest from
// a peer speaking another wire version still decodes (keyword lookup
// stays useful) but records the foreign version so PruneCapable — and
// with it semi-join pruning and estimate refinement — refuses it.
func (d *Digest) UnmarshalJSON(data []byte) error {
	var w wireDigest
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	d.Version = w.V
	d.Source = w.Source
	d.Edges = w.Edges
	d.Nodes = make(map[string]*Node, len(w.Nodes))
	for _, wn := range w.Nodes {
		vs, err := valueSetFromWire(wn.Values)
		if err != nil {
			return fmt.Errorf("digest: node %s: %w", wn.ID, err)
		}
		d.Nodes[wn.ID] = &Node{
			ID:       wn.ID,
			Source:   wn.Source,
			Label:    wn.Label,
			Kind:     NodeKind(wn.Kind),
			Analyzed: wn.Analyzed,
			Values:   vs,
		}
	}
	return nil
}
