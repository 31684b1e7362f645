package keyword

import "fmt"

// SearchOptions tune keyword search.
type SearchOptions struct {
	// MaxCandidates bounds the number of generated queries (default 3).
	MaxCandidates int
}

// Search locates the keywords in the catalog's digests, finds the
// lowest-weight join paths connecting them, and generates one
// executable CMQ per path (§2.2: "the keyword-based query engine
// identifies a set of mixed queries which, evaluated over the set of
// (joining) datasets, return the results users are interested in").
func (c *Catalog) Search(keywords []string, opts SearchOptions) ([]Candidate, error) {
	if len(keywords) == 0 {
		return nil, fmt.Errorf("keyword: no keywords given")
	}
	if opts.MaxCandidates <= 0 {
		opts.MaxCandidates = 3
	}
	matches, err := c.Matches(keywords)
	if err != nil {
		return nil, err
	}
	paths := c.joinPaths(matches, opts.MaxCandidates)
	if len(paths) == 0 {
		return nil, fmt.Errorf("keyword: no join path connects %v", keywords)
	}

	// Constrained values: for every matched node on a path, the original
	// spelling of the keyword's value (digest-recovered); label-only
	// matches (schema terms) carry no value constraint.
	constraintFor := func(nodeID, kw string) (string, bool) {
		n := c.nodes[nodeID]
		if n == nil || n.Values == nil || !n.Values.MayContain(kw) {
			return "", false
		}
		if orig, ok := n.Values.Original(kw); ok {
			return orig, true
		}
		return kw, true // Bloom-only: fall back to the keyword itself
	}

	var out []Candidate
	for _, p := range paths {
		keywordsAt := make(map[string]string)
		onPath := make(map[string]struct{}, len(p.nodes))
		for _, id := range p.nodes {
			onPath[id] = struct{}{}
		}
		for i, kw := range keywords {
			for _, m := range matches[i] {
				if _, ok := onPath[m.Node.ID]; !ok {
					continue
				}
				if orig, ok := constraintFor(m.Node.ID, kw); ok {
					keywordsAt[m.Node.ID] = orig
				}
			}
		}
		q, err := c.generate(p, keywordsAt)
		if err != nil {
			continue // a path that cannot be rendered is skipped, not fatal
		}
		out = append(out, Candidate{Query: q, Path: p.nodes, Weight: p.weight})
		if len(out) >= opts.MaxCandidates {
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("keyword: no executable query could be generated for %v", keywords)
	}
	return out, nil
}

// Explain renders a candidate's join path with node kinds.
func (c *Catalog) Explain(cand Candidate) string {
	out := ""
	for i, id := range cand.Path {
		n := c.nodes[id]
		if i > 0 {
			out += " -> "
		}
		if n == nil {
			out += id
			continue
		}
		out += fmt.Sprintf("%s(%s)", n.Label, n.Kind)
	}
	return out
}
