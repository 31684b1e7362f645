package source

import (
	"fmt"

	"tatooine/internal/fulltext"
	"tatooine/internal/value"
)

// DocSource exposes a fulltext.Index as a DataSource accepting the
// SEARCH syntax; it plays the role of the Apache Solr tweet / Facebook
// post collections of the paper's mixed instance.
type DocSource struct {
	uri string
	ix  *fulltext.Index
}

// NewDocSource wraps ix.
func NewDocSource(uri string, ix *fulltext.Index) *DocSource {
	return &DocSource{uri: uri, ix: ix}
}

// Index returns the underlying full-text index.
func (s *DocSource) Index() *fulltext.Index { return s.ix }

// URI implements DataSource.
func (s *DocSource) URI() string { return s.uri }

// Model implements DataSource.
func (s *DocSource) Model() Model { return DocumentModel }

// Languages implements DataSource.
func (s *DocSource) Languages() []Language { return []Language{LangSearch} }

// Execute implements DataSource: params substitute '?' placeholders in
// condition order.
func (s *DocSource) Execute(q SubQuery, params []value.Value) (*Result, error) {
	if q.Language != LangSearch {
		return nil, fmt.Errorf("source %s: unsupported language %q", s.uri, q.Language)
	}
	tq, err := fulltext.ParseTextQuery(q.Text)
	if err != nil {
		return nil, err
	}
	cols, rows, err := tq.Execute(s.ix, params)
	if err != nil {
		return nil, err
	}
	out := &Result{Cols: cols}
	for _, r := range rows {
		out.Rows = append(out.Rows, value.Row(r))
	}
	return out, nil
}

// ExecuteBatch implements BatchProber as a multi-term batch: the
// SEARCH statement is parsed once and the prepared query runs once per
// parameter tuple against the index. Like the RDF case, the win is
// parse amortization locally and a single round trip when this index
// is served behind a federation endpoint.
func (s *DocSource) ExecuteBatch(q SubQuery, paramSets []value.Row) ([]*Result, error) {
	if q.Language != LangSearch {
		return nil, fmt.Errorf("source %s: unsupported language %q", s.uri, q.Language)
	}
	tq, err := fulltext.ParseTextQuery(q.Text)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(paramSets))
	for i, params := range paramSets {
		cols, rows, err := tq.Execute(s.ix, params)
		if err != nil {
			return nil, err
		}
		res := &Result{Cols: cols}
		for _, r := range rows {
			res.Rows = append(res.Rows, value.Row(r))
		}
		out[i] = res
	}
	return out, nil
}

// EstimateCost implements DataSource: keyword equality conditions with
// literal values use exact document frequencies; parameterized or
// analyzed conditions fall back to corpus-size heuristics.
func (s *DocSource) EstimateCost(q SubQuery, numParams int) int {
	rows, _ := s.Estimate(q, numParams)
	return rows
}

// Estimate implements Estimator: rows from the frequency heuristics
// below, cost adds one posting-list probe per condition — the index
// answers from postings, it never scans the corpus.
func (s *DocSource) Estimate(q SubQuery, numParams int) (rows, cost int) {
	tq, err := fulltext.ParseTextQuery(q.Text)
	if err != nil {
		return -1, -1
	}
	est := s.ix.Count()
	for _, c := range tq.Conds {
		switch {
		case c.Op == fulltext.CondEq && c.Param < 0:
			// Exact: the length of this keyword value's posting list.
			if n := s.ix.KeywordCount(c.Field, c.Val.String()); n >= 0 && n < est {
				est = n
			}
		case c.Op == fulltext.CondEq:
			if e := s.ix.Count() / 100; e < est {
				est = e
			}
		default:
			if e := s.ix.Count() / 10; e < est {
				est = e
			}
		}
	}
	if tq.Limit > 0 && tq.Limit < est {
		est = tq.Limit
	}
	if est < 1 {
		est = 1
	}
	return est, est + len(tq.Conds)
}
