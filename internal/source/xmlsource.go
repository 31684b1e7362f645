package source

import (
	"fmt"

	"tatooine/internal/value"
	"tatooine/internal/xmlstore"
)

// LangXPath is the XPATH sub-query syntax of internal/xmlstore.
const LangXPath Language = "xpath"

// XMLSource exposes an xmlstore.Store as a DataSource accepting XPATH
// sub-queries — the structured-text sources (laws, regulations, public
// speeches) of the paper's mixed instances.
type XMLSource struct {
	uri   string
	store *xmlstore.Store
}

// NewXMLSource wraps store.
func NewXMLSource(uri string, store *xmlstore.Store) *XMLSource {
	return &XMLSource{uri: uri, store: store}
}

// Store returns the underlying XML store.
func (s *XMLSource) Store() *xmlstore.Store { return s.store }

// URI implements DataSource.
func (s *XMLSource) URI() string { return s.uri }

// Model implements DataSource.
func (s *XMLSource) Model() Model { return DocumentModel }

// Languages implements DataSource.
func (s *XMLSource) Languages() []Language { return []Language{LangXPath} }

// Execute implements DataSource: params substitute '?' placeholders in
// predicate order.
func (s *XMLSource) Execute(q SubQuery, params []value.Value) (*Result, error) {
	if q.Language != LangXPath {
		return nil, fmt.Errorf("source %s: unsupported language %q", s.uri, q.Language)
	}
	tq, err := xmlstore.ParseTextQuery(q.Text)
	if err != nil {
		return nil, err
	}
	strParams := make([]string, len(params))
	for i, p := range params {
		strParams[i] = p.String()
	}
	cols, rows, err := tq.Execute(s.store, strParams)
	if err != nil {
		return nil, err
	}
	out := &Result{Cols: cols}
	for _, r := range rows {
		row := make(value.Row, len(r))
		for i, cell := range r {
			if cell == "" {
				row[i] = value.NewNull()
				continue
			}
			row[i] = value.Parse(cell, false)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Estimate implements Estimator: rows is the predicate-discounted
// document count; cost stays at the full store size because the path
// evaluator walks every document regardless of how few survive the
// predicates.
func (s *XMLSource) Estimate(q SubQuery, numParams int) (rows, cost int) {
	tq, err := xmlstore.ParseTextQuery(q.Text)
	if err != nil {
		return -1, -1
	}
	est := s.store.Count()
	for _, step := range tq.Path.Steps {
		for range step.Preds {
			est /= 5
		}
	}
	if est < 1 {
		est = 1
	}
	return est, s.store.Count() + est
}
