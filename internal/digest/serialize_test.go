package digest

import (
	"encoding/json"
	"fmt"
	"testing"

	"tatooine/internal/source"
	"tatooine/internal/value"
)

func TestBloomJSONRoundTrip(t *testing.T) {
	b := NewBloom(100, 0.01)
	for i := 0; i < 100; i++ {
		b.Add(fmt.Sprintf("v-%d", i))
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back Bloom
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Bits() != b.Bits() || back.Hashes() != b.Hashes() || back.Added() != b.Added() {
		t.Errorf("params: %d/%d/%d vs %d/%d/%d",
			back.Bits(), back.Hashes(), back.Added(), b.Bits(), b.Hashes(), b.Added())
	}
	for i := 0; i < 100; i++ {
		if !back.MayContain(fmt.Sprintf("v-%d", i)) {
			t.Fatalf("round-tripped bloom lost member v-%d", i)
		}
	}
}

func TestBloomUnmarshalErrors(t *testing.T) {
	var b Bloom
	if err := json.Unmarshal([]byte(`{"v":1,"m":128,"k":4,"bits":"!!!"}`), &b); err == nil {
		t.Error("bad base64 accepted")
	}
	if err := json.Unmarshal([]byte(`{"v":1,"m":99999,"k":4,"bits":"AAAA"}`), &b); err == nil {
		t.Error("inconsistent bit length accepted")
	}
}

func TestBloomWireVersionStamped(t *testing.T) {
	b := NewBloom(10, 0.01)
	b.Add("x")
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var w struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	if w.V != WireVersion {
		t.Fatalf("marshaled bloom carries v=%d, want %d", w.V, WireVersion)
	}
}

// A bloom from a peer speaking a different wire version (including the
// pre-versioning v=0 era) must degrade to a pass-through filter: its
// bit layout cannot be trusted, and a misread filter could prune
// bindings that actually match. Pass-through answers true for every
// key — no pruning, never mis-pruning.
func TestBloomCrossVersionDecodesPassThrough(t *testing.T) {
	payloads := map[string]string{
		"pre-versioning (no v field)": `{"m":128,"k":4,"bits":"AAAAAAAAAAAAAAAAAAAAAAAAAA==","added":7}`,
		"future version":              `{"v":999,"m":128,"k":4,"bits":"!!! not even base64","added":3}`,
	}
	for name, payload := range payloads {
		var b Bloom
		if err := json.Unmarshal([]byte(payload), &b); err != nil {
			t.Fatalf("%s: cross-version bloom should degrade, not error: %v", name, err)
		}
		for _, key := range []string{"anything", "at", "all", ""} {
			if !b.MayContain(key) {
				t.Fatalf("%s: degraded bloom answered false for %q — could mis-prune", name, key)
			}
			if !b.MayContainKey(key) {
				t.Fatalf("%s: degraded bloom MayContainKey answered false for %q", name, key)
			}
		}
	}
}

// A digest decoded from a foreign wire version keeps its payload
// usable for keyword lookups (blooms degrade per node) but reports
// itself prune-incapable, so the planner never builds a semi-join
// pruner from it.
func TestDigestCrossVersionNotPruneCapable(t *testing.T) {
	d := BuildRelational("sql://insee", relFixture(t), DefaultBudget())
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		t.Fatal(err)
	}
	probe["v"] = json.RawMessage(`999`)
	foreign, err := json.Marshal(probe)
	if err != nil {
		t.Fatal(err)
	}
	var back Digest
	if err := json.Unmarshal(foreign, &back); err != nil {
		t.Fatalf("foreign-version digest should decode: %v", err)
	}
	if back.PruneCapable() {
		t.Fatal("foreign-version digest claims prune capability")
	}

	var same Digest
	if err := json.Unmarshal(data, &same); err != nil {
		t.Fatal(err)
	}
	if !same.PruneCapable() {
		t.Fatal("current-version digest lost prune capability in transit")
	}
	if (*Digest)(nil).PruneCapable() {
		t.Fatal("nil digest claims prune capability")
	}
}

func TestDigestJSONRoundTrip(t *testing.T) {
	d := BuildRelational("sql://insee", relFixture(t), DefaultBudget())
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Digest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Source != d.Source || len(back.Nodes) != len(d.Nodes) || len(back.Edges) != len(d.Edges) {
		t.Fatalf("shape: %s %d/%d", back.Source, len(back.Nodes), len(back.Edges))
	}
	// Lookups behave identically after the round trip.
	orig := d.Lookup("Paris")
	rt := back.Lookup("Paris")
	if len(orig) != len(rt) || len(rt) != 1 || rt[0].Label != "departements.name" {
		t.Errorf("lookup after round trip: %+v", rt)
	}
	// Originals survive (needed for query generation from remote digests).
	n := back.Nodes["sql://insee#departements.name"]
	if v, ok := n.Values.Original("paris"); !ok || v != "Paris" {
		t.Errorf("original after round trip: %q %v", v, ok)
	}
}

func TestDigestJSONLargeValueSet(t *testing.T) {
	// Bloom-only nodes (exact dropped) must still answer after a trip.
	b := DefaultBudget()
	b.ExactThreshold = 4
	vs := NewValueSet(b)
	for i := 0; i < 200; i++ {
		vs.Add(value.NewString(fmt.Sprintf("tok%d", i)))
	}
	vs.Seal()
	d := NewDigest("x")
	n := d.addNode("field", DocPath, vs)
	_ = n
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Digest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got := back.Nodes["x#field"]
	if got.Values.Exact() {
		t.Error("exactness should not survive when dropped")
	}
	if !got.Values.MayContain("tok42") {
		t.Error("bloom membership lost")
	}
}

func TestDigestJSONHistogram(t *testing.T) {
	vs := NewValueSet(DefaultBudget())
	for i := 1; i <= 100; i++ {
		vs.Add(value.NewInt(int64(i)))
	}
	vs.Seal()
	d := NewDigest("x")
	d.addNode("nums", RelAttribute, vs)
	data, _ := json.Marshal(d)
	var back Digest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	h := back.Nodes["x#nums"].Values.Histogram()
	if h == nil || h.N != 100 {
		t.Fatalf("hist: %+v", h)
	}
	if est := h.EstimateRange(1, 50); est < 40 || est > 60 {
		t.Errorf("estimate after round trip: %f", est)
	}
}

// badHistDigest is a digest whose one numeric node carries a histogram
// with one bound for two counts: EstimateRange would index past Bounds
// on any range conjunct.
const badHistDigest = `{"v":1,"source":"sql://x","nodes":[{"id":"sql://x#t.v","source":"sql://x",` +
	`"label":"t.v","kind":1,"values":{"count":10,"numericCount":10,` +
	`"hist":{"bounds":[0],"counts":[5,5],"min":0,"max":9,"n":10}}}],"edges":[]}`

// hugeKBloom is an all-ones 64-bit filter claiming 2^40 hash functions:
// every MayContain would run 2^40 rounds.
const hugeKBloom = `{"v":1,"m":64,"k":1099511627776,"added":1,"bits":"//////////8="}`

func TestDigestWireRejectsMalformedHistogram(t *testing.T) {
	hist := func(h string) string {
		return `{"v":1,"source":"sql://x","nodes":[{"id":"sql://x#t.v","source":"sql://x","label":"t.v",` +
			`"kind":1,"values":{"count":2,"hist":` + h + `}}]}`
	}
	for name, payload := range map[string]string{
		"counts outrun bounds": badHistDigest,
		"one bound, no bucket": hist(`{"bounds":[0],"counts":[],"min":0,"max":0,"n":0}`),
		"no bounds":            hist(`{"counts":[]}`),
		"decreasing bounds":    hist(`{"bounds":[5,1],"counts":[2],"min":1,"max":5,"n":2}`),
		"negative count":       hist(`{"bounds":[0,1],"counts":[-2],"min":0,"max":1,"n":2}`),
		"negative n":           hist(`{"bounds":[0,1],"counts":[2],"min":0,"max":1,"n":-1}`),
		"min above max":        hist(`{"bounds":[0,1],"counts":[2],"min":1,"max":0,"n":2}`),
		"negative value count": `{"v":1,"source":"sql://x","nodes":[{"id":"sql://x#t.v","values":{"count":-3}}]}`,
	} {
		var d Digest
		if err := json.Unmarshal([]byte(payload), &d); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	var ok Digest
	if err := json.Unmarshal([]byte(hist(`{"bounds":[0,0,1],"counts":[1,1],"min":0,"max":1,"n":2}`)), &ok); err != nil {
		t.Errorf("well-formed histogram with a singleton bucket refused: %v", err)
	}
}

func TestBloomWireRejectsUnboundedHashes(t *testing.T) {
	for _, k := range []string{"0", "-1", "33", "1099511627776"} {
		var b Bloom
		payload := `{"v":1,"m":64,"k":` + k + `,"added":1,"bits":"//////////8="}`
		if err := json.Unmarshal([]byte(payload), &b); err == nil {
			t.Errorf("k=%s decoded at the current wire version", k)
		}
	}
	var b Bloom
	if err := json.Unmarshal([]byte(`{"v":1,"m":64,"k":32,"added":1,"bits":"//////////8="}`), &b); err != nil {
		t.Errorf("k=32 refused: %v", err)
	}
	if got := NewBloomWithBits(64, 1000).Hashes(); got != 32 {
		t.Errorf("NewBloomWithBits kept k=%d, want it clamped to 32", got)
	}
}

// TestBloomPassThroughSurvivesWire: a filter decoded from another wire
// version re-encodes as one, so a mediator that forwards it in a /batch
// prune list is not refused for a current-version filter without hashes.
func TestBloomPassThroughSurvivesWire(t *testing.T) {
	var foreign Bloom
	if err := json.Unmarshal([]byte(`{"v":999,"m":64,"k":9,"added":2,"bits":"opaque"}`), &foreign); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&foreign)
	if err != nil {
		t.Fatal(err)
	}
	var back Bloom
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("re-encoded pass-through filter refused: %v (%s)", err, raw)
	}
	if !back.MayContain("anything") {
		t.Error("re-encoded pass-through filter excludes a key")
	}
}

// FuzzDigestWire feeds arbitrary bytes to the digest decoder and, when
// they decode, runs what a remote digest reaches in the mediator: the
// planner's RefineEstimate and the pruner's ParamMatcher over SQL,
// search and BGP sub-queries. Whatever a peer sends must neither panic
// nor hang there, and an estimate the digest gives is never negative.
func FuzzDigestWire(f *testing.F) {
	good, err := json.Marshal(BuildRelational("sql://insee", relFixture(f), DefaultBudget()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(badHistDigest))
	f.Add([]byte(`{"v":1,"source":"sql://insee","nodes":[{"id":"sql://insee#departements.code",` +
		`"source":"sql://insee","label":"departements.code","kind":1,"values":{"count":2,"bloom":` + hugeKBloom + `}}]}`))
	// Values with neither an exact set nor a bloom: count/distinct must
	// not reach for the missing filter.
	f.Add([]byte(`{"v":1,"source":"sql://insee","nodes":[{"id":"sql://insee#departements.code",` +
		`"source":"sql://insee","label":"departements.code","kind":1,"values":{"count":2}}]}`))
	// Counts near the int limit: count/distinct and the histogram sum
	// must saturate, not wrap negative.
	f.Add([]byte(`{"v":1,"source":"sql://insee","nodes":[{"id":"sql://insee#departements.code",` +
		`"source":"sql://insee","label":"departements.code","kind":1,` +
		`"values":{"count":9223372036854775807,"exact":["75","92"]}}]}`))
	f.Add([]byte(`{"v":1,"source":"sql://insee","nodes":[{"id":"sql://insee#departements.population",` +
		`"source":"sql://insee","label":"departements.population","kind":1,"values":{"count":2,` +
		`"hist":{"bounds":[0,1,2],"counts":[9000000000000000000,9000000000000000000],"min":0,"max":2,"n":2}}}]}`))
	const ns = "http://t.example/"
	subs := []source.SubQuery{
		{Language: source.LangSQL, Text: "SELECT name FROM departements WHERE code = ?", InVars: []string{"code"}},
		{Language: source.LangSQL, Text: "SELECT name FROM departements WHERE code = '75'"},
		{Language: source.LangSQL, Text: "SELECT name FROM departements WHERE population > 3 AND code = ?", InVars: []string{"c"}},
		{Language: source.LangSQL, Text: "SELECT name FROM departements WHERE population BETWEEN 0 AND 5000000"},
		{Language: source.LangSearch, Text: "SEARCH tweets WHERE user.screen_name = ? RETURN _id", InVars: []string{"id"}},
		{Language: source.LangSearch, Text: "SEARCH tweets WHERE retweets >= 3 AND lang = 'fr' RETURN _id"},
		{Language: source.LangSearch, Text: "SEARCH tweets WHERE retweets BETWEEN 1 AND 9 RETURN _id"},
		{Language: source.LangBGP, Text: "q(?x) :- ?x <" + ns + "p> ?y . ?x a <" + ns + "C>", InVars: []string{"y"}},
	}
	probes := []value.Row{{value.NewString("75")}, {value.NewInt(3)}, {value.NewNull()}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Digest
		if json.Unmarshal(data, &d) != nil {
			return
		}
		for _, q := range subs {
			if rows, ok := RefineEstimate(&d, q, nil); ok && rows < 0 {
				t.Fatalf("%s: estimate %d", q.Text, rows)
			}
			if m := NewParamMatcher(&d, q, nil); m != nil {
				for _, p := range probes {
					m.MayMatch(p)
				}
				for _, fl := range m.Filters() {
					if fl != nil {
						fl.MayContainKey("75")
					}
				}
			}
		}
		for _, n := range d.Nodes {
			n.Values.MayContainKey("75")
		}
	})
}
