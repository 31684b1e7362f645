// Package keyword implements TATOOINE's keyword-based query engine
// (§2.2): keywords are located in per-source digests, the shortest join
// paths between the matched digest nodes are identified (following the
// approach of Le et al. [9]), and each path is translated into an
// executable Conjunctive Mixed Query. This lets non-expert users
// discover connections across a mixed instance without writing
// queries.
package keyword

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"tatooine/internal/core"
	"tatooine/internal/digest"
)

// OverlapThreshold is the minimum sample-overlap fraction for two value
// sets to be considered joinable across sources.
const OverlapThreshold = 0.4

// Catalog holds the digests of a mixed instance plus the cross-source
// value-overlap edges that bridge them.
type Catalog struct {
	digests []*digest.Digest
	nodes   map[string]*digest.Node
	adj     map[string][]digest.Edge
	// GraphURI is the digest source name of the custom RDF graph.
	GraphURI string
}

// BuildCatalog collects the digests of a mixed instance — the custom
// graph's, built here, and every registered source's, taken from the
// instance's digest catalog — then discovers cross-source join edges by
// value-set overlap. A source without a digest (undigestable, or its
// fetch failed) does not take part.
func BuildCatalog(in *core.Instance) *Catalog {
	c := &Catalog{
		nodes:    make(map[string]*digest.Node),
		adj:      make(map[string][]digest.Edge),
		GraphURI: "tatooine:G",
	}
	c.addDigest(digest.BuildRDF(c.GraphURI, in.Graph(), digest.DefaultBudget()))
	for _, s := range in.Sources().All() {
		if d := in.SourceDigest(context.TODO(), s); d != nil {
			c.addDigest(d)
		}
	}
	c.discoverOverlaps()
	return c
}

func (c *Catalog) addDigest(d *digest.Digest) {
	c.digests = append(c.digests, d)
	for id, n := range d.Nodes {
		c.nodes[id] = n
	}
	for _, e := range d.Edges {
		c.adj[e.From] = append(c.adj[e.From], e)
	}
}

// discoverOverlaps probes value-set overlap between every pair of
// value-bearing nodes in different sources and adds ValueOverlap edges
// where the sampled overlap passes the threshold; these are the "joins
// available in this application domain" the paper capitalizes on.
func (c *Catalog) discoverOverlaps() {
	var valueNodes []*digest.Node
	for _, n := range c.sortedNodes() {
		if n.Values != nil && n.Values.Count() > 0 {
			valueNodes = append(valueNodes, n)
		}
	}
	for i := 0; i < len(valueNodes); i++ {
		for j := i + 1; j < len(valueNodes); j++ {
			a, b := valueNodes[i], valueNodes[j]
			if a.Source == b.Source {
				continue
			}
			ov := digest.OverlapEstimate(a.Values, b.Values)
			if rev := digest.OverlapEstimate(b.Values, a.Values); rev > ov {
				ov = rev
			}
			if ov < OverlapThreshold {
				continue
			}
			w := 2.0 - ov // stronger overlap → cheaper edge
			c.adj[a.ID] = append(c.adj[a.ID], digest.Edge{From: a.ID, To: b.ID, Kind: digest.ValueOverlap, Weight: w})
			c.adj[b.ID] = append(c.adj[b.ID], digest.Edge{From: b.ID, To: a.ID, Kind: digest.ValueOverlap, Weight: w})
		}
	}
}

func (c *Catalog) sortedNodes() []*digest.Node {
	out := make([]*digest.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Digests returns the per-source digests.
func (c *Catalog) Digests() []*digest.Digest { return c.digests }

// Lookup returns all digest nodes matching the keyword.
func (c *Catalog) Lookup(kw string) []*digest.Node {
	var out []*digest.Node
	for _, d := range c.digests {
		out = append(out, d.Lookup(kw)...)
	}
	return out
}

// Match pairs a keyword with a digest node that may contain it.
type Match struct {
	Keyword string
	Node    *digest.Node
	// Exact is true when the node's value set answered exactly.
	Exact bool
}

// Matches returns per-keyword matches; an error if a keyword matches
// nothing.
func (c *Catalog) Matches(keywords []string) ([][]Match, error) {
	out := make([][]Match, len(keywords))
	for i, kw := range keywords {
		nodes := c.Lookup(kw)
		if len(nodes) == 0 {
			return nil, fmt.Errorf("keyword: %q matches no digest node", kw)
		}
		for _, n := range nodes {
			out[i] = append(out[i], Match{
				Keyword: kw,
				Node:    n,
				Exact:   n.Values != nil && n.Values.Exact(),
			})
		}
	}
	return out, nil
}

// ---------- shortest paths ----------

// pathResult is a join path with its total weight.
type pathResult struct {
	nodes  []string
	weight float64
}

type pqItem struct {
	node string
	dist float64
}

type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; n := len(old); x := old[n-1]; *p = old[:n-1]; return x }

// shortestPath runs Dijkstra from one node to a target set; it returns
// the path and weight, or false.
func (c *Catalog) shortestPath(from string, targets map[string]struct{}) (pathResult, bool) {
	dist := map[string]float64{from: 0}
	prev := map[string]string{}
	done := map[string]struct{}{}
	h := &pq{{from, 0}}
	for h.Len() > 0 {
		cur := heap.Pop(h).(pqItem)
		if _, ok := done[cur.node]; ok {
			continue
		}
		done[cur.node] = struct{}{}
		if _, hit := targets[cur.node]; hit {
			// Reconstruct.
			var nodes []string
			for n := cur.node; ; {
				nodes = append([]string{n}, nodes...)
				p, ok := prev[n]
				if !ok {
					break
				}
				n = p
			}
			return pathResult{nodes: nodes, weight: cur.dist}, true
		}
		for _, e := range c.adj[cur.node] {
			nd := cur.dist + e.Weight
			if old, seen := dist[e.To]; !seen || nd < old {
				dist[e.To] = nd
				prev[e.To] = cur.node
				heap.Push(h, pqItem{e.To, nd})
			}
		}
	}
	return pathResult{}, false
}

// joinPaths finds up to k low-weight paths connecting one match of the
// first keyword to one match of each other keyword. For two keywords
// this is pairwise shortest path; for more, paths from the first
// keyword's matches are extended greedily through the remaining
// keywords' target sets (a Steiner-tree heuristic in the spirit of [9]).
func (c *Catalog) joinPaths(matches [][]Match, k int) []pathResult {
	if k <= 0 {
		k = 3
	}
	targetSet := func(ms []Match) map[string]struct{} {
		out := make(map[string]struct{}, len(ms))
		for _, m := range ms {
			out[m.Node.ID] = struct{}{}
		}
		return out
	}
	var results []pathResult
	if len(matches) == 1 {
		for _, m := range matches[0] {
			results = append(results, pathResult{nodes: []string{m.Node.ID}})
		}
	} else {
		for _, start := range matches[0] {
			nodes := []string{start.Node.ID}
			weight := 0.0
			ok := true
			cur := start.Node.ID
			for _, rest := range matches[1:] {
				p, found := c.shortestPath(cur, targetSet(rest))
				if !found {
					ok = false
					break
				}
				nodes = append(nodes, p.nodes[1:]...)
				weight += p.weight
				cur = p.nodes[len(p.nodes)-1]
			}
			if ok {
				results = append(results, pathResult{nodes: nodes, weight: weight})
			}
		}
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].weight != results[j].weight {
			return results[i].weight < results[j].weight
		}
		return len(results[i].nodes) < len(results[j].nodes)
	})
	// Deduplicate identical node sequences.
	seen := make(map[string]struct{})
	var dedup []pathResult
	for _, r := range results {
		key := fmt.Sprint(r.nodes)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		dedup = append(dedup, r)
	}
	if len(dedup) > k {
		dedup = dedup[:k]
	}
	return dedup
}
