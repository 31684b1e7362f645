package digest

import (
	"testing"

	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
)

// Test-only access for the external digest_test package.

func RelFixture(t testing.TB) *relstore.Database { return relFixture(t) }

func RDFFixture() *rdf.Graph { return rdfFixture() }

func DocFixture(t testing.TB) *fulltext.Index { return docFixture(t) }

// MatcherNodeIDs lists, per parameter position, the IDs of the nodes a
// bound value must appear in (nil for a nil matcher).
func MatcherNodeIDs(m *ParamMatcher) [][]string {
	if m == nil {
		return nil
	}
	out := make([][]string, len(m.nodes))
	for i, ns := range m.nodes {
		out[i] = []string{}
		for _, n := range ns {
			out[i] = append(out[i], n.ID)
		}
	}
	return out
}
