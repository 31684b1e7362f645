package main

import (
	"fmt"
	"math/rand"
	"strings"

	"tatooine/internal/datagen"
)

// Query classes. The templates are those of the repository's bench_test.go
// (E1, E2, E11, E12) plus a graph-only point lookup; parameters come from
// datagen's vocabulary.
const (
	classE1Rare   = "e1_rare"   // head of state x one hashtag: one bind-join binding
	classE1Common = "e1_common" // a whole position x one hashtag: tens of bindings
	classE2Facts  = "e2_facts"  // graph x tweets x sql://insee
	classE11XML   = "e11_xml"   // graph x XPath over speeches
	classE12Agg   = "e12_agg"   // GROUP BY / COUNT DISTINCT / ORDER BY head
	classGLookup  = "g_lookup"  // graph-only pattern over the saturation
)

var allClasses = []string{classE1Rare, classE1Common, classE2Facts, classE11XML, classE12Agg, classGLookup}

var (
	rareHashtags    = []string{"SIA2016", "economie", "education"}
	commonHashtag   = "EtatDurgence"
	commonPositions = []string{"deputy", "senator", "mayor", "minister", "MEP"}
	inseeYears      = []int{2014, 2015, 2016}
)

// query is one CMQ text of a workload's catalogue.
type query struct {
	class string
	text  string
	// e1 and g_lookup parameters, kept so the oracle can compute the
	// expected rows without the engine.
	position, hashtag string
	politician        int
}

func e1Query(class, name, position, hashtag string) query {
	return query{class: class, position: position, hashtag: hashtag, text: fmt.Sprintf(`
QUERY %s(?t, ?id)
GRAPH { ?x :position :%s . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '%s' RETURN _id, user.screen_name }
`, name, position, hashtag)}
}

func e2Query(name, hashtag string, year int) query {
	return query{class: classE2Facts, text: fmt.Sprintf(`
QUERY %s(?t, ?dept, ?taux)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id . ?x :electedIn ?dept }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '%s' RETURN _id, user.screen_name }
FROM <sql://insee> IN(?dept) OUT(?dept, ?taux)
  { SELECT dept, taux FROM chomage WHERE dept = ? AND annee = %d }
`, name, hashtag, year)}
}

func e11Query(name, ret string) query {
	return query{class: classE11XML, text: fmt.Sprintf(`
QUERY %s(?name, ?spid, ?v)
GRAPH { ?x :position :headOfState . ?x foaf:name ?name }
FROM <xml://speeches> IN(?name) OUT(?spid, ?v)
  { XPATH /speeches/speech[@speaker=?] RETURN _id, %s }
`, name, ret)}
}

func e12Query(name, hashtag string) query {
	return query{class: classE12Agg, text: fmt.Sprintf(`
QUERY %s(?cur, COUNT(?t) AS ?n, COUNT(DISTINCT ?id) AS ?authors)
GRAPH { ?x :memberOf ?p . ?p :currentOf ?cur . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '%s' RETURN _id, user.screen_name }
GROUP BY ?cur
ORDER BY ?n DESC
`, name, hashtag)}
}

// gLookupQuery needs G∞: being a :person is derived from :politician.
func gLookupQuery(p datagen.Politician, idx int) query {
	return query{class: classGLookup, politician: idx, text: fmt.Sprintf(`
QUERY g(?name, ?party)
GRAPH { pol:%s a :person . pol:%s foaf:name ?name . pol:%s :memberOf ?party }
`, p.ID, p.ID, p.ID)}
}

// classPool returns every variant of a class, in a fixed order. The pools
// keep the cost of a class's variants close together, so that which variant
// a seed draws does not move a workload's percentiles.
func classPool(class string) []query {
	var out []query
	switch class {
	case classE1Rare:
		for _, h := range rareHashtags {
			out = append(out, e1Query(class, "e1r", "headOfState", h))
		}
	case classE1Common:
		for _, p := range commonPositions {
			out = append(out, e1Query(class, "e1c", p, commonHashtag))
		}
	case classE2Facts:
		for _, h := range rareHashtags {
			for _, y := range inseeYears {
				out = append(out, e2Query("e2", h, y))
			}
		}
	case classE11XML:
		for _, ret := range []string{"topic", "title"} {
			out = append(out, e11Query("e11", ret))
		}
	case classE12Agg:
		for _, h := range []string{commonHashtag, "economie"} {
			out = append(out, e12Query("e12", h))
		}
	}
	return out
}

// e1CommonRarePool is federated_stream's variant of e1_common: a whole
// position probed for a rare hashtag, so most bindings are answered empty or
// pruned by the tweets digest before they travel.
func e1CommonRarePool() []query {
	var out []query
	for _, p := range commonPositions {
		for _, h := range rareHashtags {
			out = append(out, e1Query(classE1Common, "e1cr", p, h))
		}
	}
	return out
}

func gLookupPool(pols []datagen.Politician) []query {
	out := make([]query, len(pols))
	for i, p := range pols {
		out[i] = gLookupQuery(p, i)
	}
	return out
}

// hotCatalogue is serve_hot's 64 distinct CMQs. Rank r of the Zipf draw is
// entry r, and the class at each rank is fixed by the pattern below so that
// the share of large replies among the popular entries does not depend on the
// seed. A class with fewer variants than slots repeats them under distinct
// query names: the canonical key includes the name, so each is its own
// result-cache entry, as two dashboard panels over one query would be.
func hotCatalogue() []query {
	pattern := []string{
		classE1Rare, classE2Facts, classE1Common, classE1Rare, classE11XML, classE1Rare, classE2Facts, classE12Agg,
		classE1Rare, classE1Common, classE11XML, classE1Rare, classE2Facts, classE1Rare, classE11XML, classE1Rare,
	}
	const distinct = 64
	used := map[string]int{}
	out := make([]query, 0, distinct)
	for r := 0; r < distinct; r++ {
		class := pattern[r%len(pattern)]
		pool := classPool(class)
		q := pool[used[class]%len(pool)]
		used[class]++
		q.text = renameQuery(q.text, fmt.Sprintf("panel%02d", r))
		out = append(out, q)
	}
	return out
}

// renameQuery replaces the name between the leading QUERY keyword and the
// head's opening parenthesis.
func renameQuery(text, name string) string {
	const kw = "QUERY "
	start := strings.Index(text, kw)
	if start < 0 {
		return text
	}
	start += len(kw)
	end := strings.IndexByte(text[start:], '(')
	if end < 0 {
		return text
	}
	return text[:start] + name + text[start+end:]
}

// opKind says what a client does at one step of its sequence.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one step of a client's closed loop: a read of catalogue entry q, or
// a graph write inserting one fresh politician.
type op struct {
	kind opKind
	q    int
}

// mixEntry is one class of a workload's read mix with its share.
type mixEntry struct {
	class string
	share float64
}

// workloadPlan is what the seed does not change about a workload: its
// catalogue and how a sequence is drawn from it.
type workloadPlan struct {
	catalogue []query
	byClass   map[string][]int // catalogue indexes per class
	draw      func(rng *rand.Rand, n int) []op
}

func indexByClass(cat []query) map[string][]int {
	m := map[string][]int{}
	for i, q := range cat {
		m[q.class] = append(m[q.class], i)
	}
	return m
}

// mixDrawer draws n reads: a class by its share, then one of the class's
// variants uniformly.
func mixDrawer(byClass map[string][]int, mix []mixEntry) func(*rand.Rand, int) []op {
	return func(rng *rand.Rand, n int) []op {
		ops := make([]op, n)
		for i := range ops {
			x, class := rng.Float64(), mix[len(mix)-1].class
			for _, m := range mix {
				if x < m.share {
					class = m.class
					break
				}
				x -= m.share
			}
			pool := byClass[class]
			ops[i] = op{kind: opRead, q: pool[rng.Intn(len(pool))]}
		}
		return ops
	}
}

// planFor builds the catalogue and drawer of a workload over a dataset.
func planFor(workload string, pols []datagen.Politician) workloadPlan {
	var p workloadPlan
	concat := func(classes ...string) {
		for _, c := range classes {
			p.catalogue = append(p.catalogue, classPool(c)...)
		}
	}
	switch workload {
	case wlServeHot:
		p.catalogue = hotCatalogue()
		p.byClass = indexByClass(p.catalogue)
		p.draw = func(rng *rand.Rand, n int) []op {
			z := rand.NewZipf(rng, 1.1, 1, uint64(len(p.catalogue)-1))
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{kind: opRead, q: int(z.Uint64())}
			}
			return ops
		}
	case wlServeExec:
		concat(classE1Rare, classE2Facts, classE11XML, classE1Common, classE12Agg)
		p.byClass = indexByClass(p.catalogue)
		p.draw = mixDrawer(p.byClass, []mixEntry{
			{classE1Rare, 0.45}, {classE2Facts, 0.22}, {classE11XML, 0.18}, {classE1Common, 0.05}, {classE12Agg, 0.10},
		})
	case wlFederated:
		concat(classE1Rare, classE2Facts)
		p.catalogue = append(p.catalogue, e1CommonRarePool()...)
		p.byClass = indexByClass(p.catalogue)
		p.draw = mixDrawer(p.byClass, []mixEntry{
			{classE1Rare, 0.40}, {classE1Common, 0.30}, {classE2Facts, 0.30},
		})
	case wlDurable:
		concat(classE1Rare, classE2Facts)
		p.catalogue = append(p.catalogue, gLookupPool(pols)...)
		p.byClass = indexByClass(p.catalogue)
		p.draw = func(rng *rand.Rand, n int) []op { return durableCycle(rng, p.byClass, n) }
	}
	return p
}

// Reads per durable_mutate cycle, after the write. The first read is always
// an e1_rare, so that post_write_query_p50_ms measures one thing: a query
// that needs the tweets digest right after a write dropped it.
const (
	durableLookups = 10
	durableE1      = 3
	durableE2      = 3
)

// durableCycle repeats: one write, one e1_rare, then the remaining reads of
// the cycle in seeded order, each with a seeded variant (lookups over
// uniformly random politicians, which is what misses the page cache).
func durableCycle(rng *rand.Rand, byClass map[string][]int, n int) []op {
	pick := func(class string) op {
		pool := byClass[class]
		return op{kind: opRead, q: pool[rng.Intn(len(pool))]}
	}
	ops := make([]op, 0, n)
	for len(ops) < n {
		ops = append(ops, op{kind: opWrite}, pick(classE1Rare))
		rest := make([]op, 0, durableLookups+durableE1-1+durableE2)
		for i := 0; i < durableLookups; i++ {
			rest = append(rest, pick(classGLookup))
		}
		for i := 0; i < durableE1-1; i++ {
			rest = append(rest, pick(classE1Rare))
		}
		for i := 0; i < durableE2; i++ {
			rest = append(rest, pick(classE2Facts))
		}
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		ops = append(ops, rest...)
	}
	return ops[:n]
}

// clientSequence is client c's op sequence under a seed. Each client gets
// its own stream so that two clients do not request in lockstep.
func (p workloadPlan) clientSequence(seed int64, client, n int) []op {
	return p.draw(rand.New(rand.NewSource(seed*1_000_003+int64(client))), n)
}
