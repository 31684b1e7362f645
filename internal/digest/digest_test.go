package digest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/value"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBloomWithBits(960, 7) // sized for 100 values at 1% false positives
		var added []string
		for i := 0; i < 100; i++ {
			s := fmt.Sprintf("value-%d", rng.Intn(10000))
			b.Add(s)
			added = append(added, s)
		}
		for _, s := range added {
			if !b.MayContain(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := NewBloomWithBits(9600, 7) // sized for 1,000 values at 1% false positives
	for i := 0; i < 1000; i++ {
		b.Add(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.MayContain(fmt.Sprintf("nonmember-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Errorf("false positive rate %.4f too high for 1%% filter", rate)
	}
	if est := b.EstimatedFPR(); est > 0.05 {
		t.Errorf("estimated FPR %.4f", est)
	}
}

func TestBloomBudgetTradeoff(t *testing.T) {
	// Smaller budgets must yield (weakly) more false positives.
	measure := func(bits uint64) float64 {
		b := NewBloomWithBits(bits, 4)
		for i := 0; i < 500; i++ {
			b.Add(fmt.Sprintf("m-%d", i))
		}
		fp := 0
		for i := 0; i < 5000; i++ {
			if b.MayContain(fmt.Sprintf("x-%d", i)) {
				fp++
			}
		}
		return float64(fp) / 5000
	}
	small, large := measure(512), measure(16384)
	if small <= large {
		t.Errorf("FPR small=%f should exceed large=%f", small, large)
	}
}

// TestHistogramEquiWidth: on evenly spread values the equi-depth
// buckets are equal-width too.
func TestHistogramEquiWidth(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h := NewEquiDepth(vals, 5)
	if h.N != 10 || h.Min != 1 || h.Max != 10 {
		t.Fatalf("hist: %+v", h)
	}
	if got := h.EstimateRange(1, 10); got < 9 || got > 11 {
		t.Errorf("full range estimate: %f", got)
	}
	if got := h.EstimateRange(20, 30); got != 0 {
		t.Errorf("out of range estimate: %f", got)
	}
}

func TestHistogramEquiDepthSkew(t *testing.T) {
	// Heavy skew: equi-depth should split the dense region.
	var vals []float64
	for i := 0; i < 1000; i++ {
		vals = append(vals, 1.0)
	}
	vals = append(vals, 1000)
	h := NewEquiDepth(vals, 4)
	if h.N != 1001 {
		t.Fatalf("n: %d", h.N)
	}
	est := h.EstimateRange(0.5, 1.5)
	if est < 500 {
		t.Errorf("dense region estimate %f too low", est)
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	h := NewEquiDepth(nil, 8)
	if h.EstimateRange(0, 10) != 0 {
		t.Error("empty histogram should match nothing")
	}
	h1 := NewEquiDepth([]float64{7}, 8)
	if h1.EstimateRange(6, 8) != 1 {
		t.Errorf("single estimate: %f", h1.EstimateRange(6, 8))
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"head of state":                "headofstate",
		"headOfState":                  "headofstate",
		"HEAD-OF-STATE":                "headofstate",
		"http://t.example/headOfState": "headofstate",
		"État d'urgence":               "etatdurgence",
		"SIA2016":                      "sia2016",
		"#SIA2016":                     "sia2016",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

// refNormalize is Normalize as it was before its fast path, rebuilding
// every string: the reference Normalize must agree with.
func refNormalize(s string) string {
	s = localName(s)
	var b strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return foldASCII(b.String())
}

// TestNormalizeMatchesReference: every folded rune, in both cases, alone
// and in mixed strings, IRIs, punctuation and invalid UTF-8 normalize
// as the reference normalizes them; text that is already normalized,
// ASCII or not, costs no allocation.
func TestNormalizeMatchesReference(t *testing.T) {
	var cases []string
	for r, folded := range foldTable {
		cases = append(cases, string(r), strings.ToUpper(string(r)), "x"+string(r)+"Y", folded+string(r))
	}
	cases = append(cases, "", "headofstate", "head of state", "HEAD-OF-STATE", "http://t.example/headOfState",
		"urn:x#Élection", "æther", "ñandú", "ÿ", "straße", "ÉCOLE", "日本Noël", "日本noel", "a\xffb", "\xc3",
		"\xef\xbf\xbd", "İstanbul", "\u212aelvin", "ǅ", "٣٤", "sia2016", "#SIA2016")
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("aZ9 -éÉœŒæñÿ\uFFFD日İǅ٣K#")
	for i := 0; i < 2000; i++ {
		r := make([]rune, rng.Intn(8))
		for j := range r {
			r[j] = alphabet[rng.Intn(len(alphabet))]
		}
		cases = append(cases, string(r))
	}
	for _, c := range cases {
		if got, want := Normalize(c), refNormalize(c); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", c, got, want)
		}
	}
	for _, s := range []string{"headofstate", "sia2016", "日本noel", "ñandú"} {
		if n := testing.AllocsPerRun(100, func() { _ = Normalize(s) }); n != 0 {
			t.Errorf("Normalize(%q): %v allocations, want 0", s, n)
		}
	}
}

func TestValueSetExactVsBloom(t *testing.T) {
	b := DefaultBudget()
	b.ExactThreshold = 4
	vs := NewValueSet(b)
	for i := 0; i < 3; i++ {
		vs.Add(value.NewString(fmt.Sprintf("v%d", i)))
	}
	vs.Seal()
	if !vs.Exact() {
		t.Error("small set should stay exact")
	}
	if !vs.MayContain("v1") || vs.MayContain("v99") {
		t.Error("exact membership wrong")
	}

	vs2 := NewValueSet(b)
	for i := 0; i < 100; i++ {
		vs2.Add(value.NewString(fmt.Sprintf("w%d", i)))
	}
	vs2.Seal()
	if vs2.Exact() {
		t.Error("large set should drop exact representation")
	}
	if !vs2.MayContain("w42") {
		t.Error("bloom must not have false negatives")
	}
}

func TestValueSetNumericHistogram(t *testing.T) {
	vs := NewValueSet(DefaultBudget())
	for i := 1; i <= 100; i++ {
		vs.Add(value.NewInt(int64(i)))
	}
	vs.Seal()
	h := vs.Histogram()
	if h == nil || h.N != 100 {
		t.Fatalf("histogram: %+v", h)
	}
	if est := h.EstimateRange(1, 50); est < 40 || est > 60 {
		t.Errorf("range estimate: %f", est)
	}
}

func TestOverlapEstimate(t *testing.T) {
	b := DefaultBudget()
	a := NewValueSet(b)
	c := NewValueSet(b)
	for i := 0; i < 20; i++ {
		a.Add(value.NewString(fmt.Sprintf("shared-%d", i)))
		c.Add(value.NewString(fmt.Sprintf("shared-%d", i)))
	}
	for i := 0; i < 20; i++ {
		c.Add(value.NewString(fmt.Sprintf("private-%d", i)))
	}
	a.Seal()
	c.Seal()
	if got := OverlapEstimate(a, c); got < 0.9 {
		t.Errorf("overlap a⊆c: %f", got)
	}
	d := NewValueSet(b)
	for i := 0; i < 20; i++ {
		d.Add(value.NewString(fmt.Sprintf("disjoint-%d", i)))
	}
	d.Seal()
	if got := OverlapEstimate(a, d); got > 0.2 {
		t.Errorf("overlap disjoint: %f", got)
	}
}

// loadTable creates s in db and inserts rows; a cell is a Go string,
// int, float64 or bool, or nil for NULL.
func loadTable(t testing.TB, db *relstore.Database, s relstore.Schema, rows ...[]any) *relstore.Table {
	t.Helper()
	tbl, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, cells := range rows {
		row := make(value.Row, len(cells))
		for i, c := range cells {
			switch c := c.(type) {
			case string:
				row[i] = value.NewString(c)
			case int:
				row[i] = value.NewInt(int64(c))
			case float64:
				row[i] = value.NewFloat(c)
			case bool:
				row[i] = value.NewBool(c)
			}
		}
		if err := tbl.Insert(row); err != nil {
			t.Fatalf("insert into %s: %v", s.Name, err)
		}
	}
	return tbl
}

func relFixture(t testing.TB) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "departements", PrimaryKey: []string{"code"}, Columns: []relstore.Column{
		{Name: "code", Type: value.String}, {Name: "name", Type: value.String},
		{Name: "population", Type: value.Int}}},
		[]any{"75", "Paris", 2187526}, []any{"92", "Hauts-de-Seine", 1609306})
	loadTable(t, db, relstore.Schema{Name: "resultats",
		ForeignKeys: []relstore.ForeignKey{{Column: "dept", RefTable: "departements", RefColumn: "code"}},
		Columns: []relstore.Column{
			{Name: "dept", Type: value.String}, {Name: "party", Type: value.String},
			{Name: "votes", Type: value.Int}}},
		[]any{"75", "PS", 350000}, []any{"92", "LR", 380000})
	return db
}

func TestBuildRelationalDigest(t *testing.T) {
	d := BuildRelational("sql://insee", relFixture(t), DefaultBudget())
	// Table nodes + attribute nodes: 2 tables, 3+3 columns.
	if len(d.Nodes) != 8 {
		t.Fatalf("nodes: %d", len(d.Nodes))
	}
	// Keyword "Paris" is a value of departements.name.
	hits := d.Lookup("Paris")
	if len(hits) != 1 || hits[0].Label != "departements.name" {
		t.Errorf("lookup Paris: %+v", hits)
	}
	// Schema-term hit: "resultats" matches the table node label.
	hits = d.Lookup("resultats")
	if len(hits) == 0 {
		t.Error("schema term lookup failed")
	}
	// FK edge present with low weight.
	foundFK := false
	for _, e := range d.Edges {
		if e.Kind == KeyForeignKey {
			foundFK = true
		}
	}
	if !foundFK {
		t.Error("missing FK edge")
	}
}

func rdfFixture() *rdf.Graph {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:POL1 a :politician ;
  :position :headOfState ;
  :twitterAccount "fhollande" .
:POL2 a :politician ;
  :position :deputy ;
  :twitterAccount "jdupont" .
`))
	return g
}

func TestBuildRDFDigest(t *testing.T) {
	d := BuildRDF("tatooine:G", rdfFixture(), DefaultBudget())
	// "head of state" must match the position property's value set.
	hits := d.Lookup("head of state")
	found := false
	for _, n := range hits {
		if n.Label == "http://t.example/position" {
			found = true
		}
	}
	if !found {
		t.Errorf("lookup 'head of state': %+v", hits)
	}
	// Property co-occurrence edge between position and twitterAccount.
	pos := d.Source + "#http://t.example/position"
	tw := d.Source + "#http://t.example/twitterAccount"
	connected := false
	for _, e := range d.Edges {
		if e.From == pos && e.To == tw {
			connected = true
		}
	}
	if !connected {
		t.Error("co-occurring properties not connected")
	}
	// Class node for politician exists and holds instances.
	cls := d.Nodes[d.Source+"#http://t.example/politician"]
	if cls == nil || cls.Kind != RDFClass || cls.Values.Count() != 2 {
		t.Errorf("class node: %+v", cls)
	}
}

func TestBuildDocumentDigest(t *testing.T) {
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text":              fulltext.TextField,
		"user.screen_name":  fulltext.KeywordField,
		"entities.hashtags": fulltext.KeywordField,
	})
	d1 := &doc.Document{ID: "t1"}
	d1.Set("text", "solidarité #SIA2016")
	d1.Set("user.screen_name", "fhollande")
	d1.Set("entities.hashtags", []any{"SIA2016"})
	if err := ix.Add(d1); err != nil {
		t.Fatal(err)
	}
	d := BuildDocument("solr://tweets", ix, DefaultBudget())
	hits := d.Lookup("SIA2016")
	foundTag := false
	for _, n := range hits {
		if n.Label == "entities.hashtags" {
			foundTag = true
		}
	}
	if !foundTag {
		t.Errorf("lookup SIA2016: %+v", hits)
	}
	// Root is connected to every path.
	root := d.Source + "#tweets"
	edges := 0
	for _, e := range d.Edges {
		if e.From == root {
			edges++
		}
	}
	if edges != 3 {
		t.Errorf("root edges: %d", edges)
	}
}

func TestCrossSourceOverlap(t *testing.T) {
	// The twitterAccount property values overlap the tweet
	// user.screen_name values — the join bridge of the paper.
	rdfDig := BuildRDF("tatooine:G", rdfFixture(), DefaultBudget())
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"user.screen_name": fulltext.KeywordField,
	})
	d1 := &doc.Document{ID: "t1"}
	d1.Set("user.screen_name", "fhollande")
	ix.Add(d1)
	docDig := BuildDocument("solr://tweets", ix, DefaultBudget())

	tw := rdfDig.Nodes["tatooine:G#http://t.example/twitterAccount"]
	sn := docDig.Nodes["solr://tweets#user.screen_name"]
	if tw == nil || sn == nil {
		t.Fatal("nodes missing")
	}
	if got := OverlapEstimate(sn.Values, tw.Values); got < 0.9 {
		t.Errorf("screen_name ⊆ twitterAccount overlap: %f", got)
	}
}

// TestFoldASCII: every folded rune maps to its ASCII spelling, alone
// and inside mixed strings; runes outside the table and ASCII text pass
// through, and ASCII text costs no allocation.
func TestFoldASCII(t *testing.T) {
	single := map[string]string{
		"à": "a", "â": "a", "ä": "a", "é": "e", "è": "e", "ê": "e", "ë": "e",
		"î": "i", "ï": "i", "ô": "o", "ö": "o", "ù": "u", "û": "u", "ü": "u",
		"ç": "c", "œ": "oe",
	}
	if len(single) != len(foldTable) {
		t.Fatalf("%d cases for %d folded runes", len(single), len(foldTable))
	}
	for in, want := range single {
		if got := foldASCII(in); got != want {
			t.Errorf("foldASCII(%q) = %q, want %q", in, got, want)
		}
	}
	mixed := map[string]string{
		"":                 "",
		"headofstate":      "headofstate",
		"élection2017":     "election2017",
		"cœurdeparis":      "coeurdeparis",
		"naïvetégarçon":    "naivetegarcon",
		"châteaudeuxième":  "chateaudeuxieme",
		"ñandú":            "ñandú",
		"straße":           "straße",
		"ÉCOLE":            "ÉCOLE",
		"zürichœuvreà":     "zurichoeuvrea",
		"日本noël":           "日本noel",
		"àâäéèêëîïôöùûüçœ": "aaaeeeeiioouuucoe",
	}
	for in, want := range mixed {
		if got := foldASCII(in); got != want {
			t.Errorf("foldASCII(%q) = %q, want %q", in, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = foldASCII("headofstate") }); n != 0 {
		t.Errorf("foldASCII on ASCII text: %v allocations, want 0", n)
	}
}
