package digest

import "tatooine/internal/source"

// Digester is implemented by sources that can produce (or fetch) their
// own digest — e.g. federation clients pulling the remote endpoint's
// digest.
type Digester interface {
	Digest(budget Budget) (*Digest, error)
}

// ForSource builds the digest appropriate for a data source's
// substrate, dispatching on the adapter type. Sources implementing
// Digester provide their own (remote endpoints). Unknown source types
// yield (nil, nil): they simply do not participate in keyword search.
func ForSource(s source.DataSource, budget Budget) (*Digest, error) {
	switch src := s.(type) {
	case Digester:
		return src.Digest(budget)
	case interface{ Unwrap() source.DataSource }:
		// Decorators (the probe cache among them) digest as their inner
		// source.
		return ForSource(src.Unwrap(), budget)
	case *source.RDFSource:
		return BuildRDF(s.URI(), src.Graph(), budget), nil
	case *source.RelSource:
		return BuildRelational(s.URI(), src.DB(), budget), nil
	case *source.DocSource:
		return BuildDocument(s.URI(), src.Index(), budget), nil
	case *source.XMLSource:
		return BuildXML(s.URI(), src.Store(), budget), nil
	default:
		return nil, nil
	}
}
