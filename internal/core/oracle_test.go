package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"tatooine/internal/source"
	"tatooine/internal/value"
)

// This file holds the reference evaluator the executor is checked
// against. It shares nothing with the executor but the source
// interface and the value type: every atom runs through plain
// DataSource.Execute, once per binding for bind joins and once per
// source for scans — no batching, pruning, digests, planning or
// streaming — and the body joins by nested loops over bindings, in
// declaration order as far as designators and IN variables allow.
// Head projection, DISTINCT, ORDER BY and LIMIT are then applied in
// plain loops. Aggregated heads are out of its scope.

// oracleQuery evaluates q over in and returns the head columns and the
// finished rows.
func oracleQuery(in *Instance, q *CMQ) ([]string, []value.Row, error) {
	if len(q.HeadItems) > 0 {
		return nil, nil, fmt.Errorf("oracle: aggregated heads are not supported")
	}
	prefixes := in.prefixesFor(q.Prefixes)
	var vars []string           // bound variables, in binding order
	bindings := []value.Row{{}} // one row of values per embedding
	done := make([]bool, len(q.Atoms))
	for range q.Atoms {
		next := -1
		for i, a := range q.Atoms {
			if !done[i] && oracleRunnable(a, vars) {
				next = i
				break
			}
		}
		if next < 0 {
			return nil, nil, fmt.Errorf("oracle: no atom is runnable")
		}
		done[next] = true
		a := q.Atoms[next]
		outs, err := a.outVars(prefixes)
		if err != nil {
			return nil, nil, err
		}
		if vars, bindings, err = oracleJoin(in, q, a, outs, vars, bindings); err != nil {
			return nil, nil, err
		}
	}

	cols := q.Head
	var rows []value.Row
	seen := map[string]bool{}
	for _, b := range bindings {
		row := make(value.Row, len(cols))
		for i, c := range cols {
			row[i] = b[slices.Index(vars, c)]
		}
		if q.Distinct {
			if seen[row.Key()] {
				continue
			}
			seen[row.Key()] = true
		}
		rows = append(rows, row)
	}
	if q.OrderBy != "" {
		ci := slices.Index(cols, q.OrderBy)
		sort.SliceStable(rows, func(i, j int) bool {
			c, _ := value.Compare(rows[i][ci], rows[j][ci])
			if q.OrderDesc {
				return c > 0
			}
			return c < 0
		})
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return cols, rows, nil
}

func oracleRunnable(a Atom, vars []string) bool {
	if a.SourceVar != "" && !slices.Contains(vars, a.SourceVar) {
		return false
	}
	for _, iv := range a.Sub.InVars {
		if !slices.Contains(vars, strings.TrimPrefix(iv, "?")) {
			return false
		}
	}
	return true
}

// oracleJoin extends every binding with the rows atom a returns for it,
// returning the widened variable list and bindings. A variable already
// bound must equal the new value; NULL equals nothing, so a NULL never
// joins, parameterizes a probe or designates a source.
func oracleJoin(in *Instance, q *CMQ, a Atom, outs []string, vars []string, bindings []value.Row) ([]string, []value.Row, error) {
	// pos[i] is where OUT variable i lives in the widened binding.
	widened := slices.Clone(vars)
	pos := make([]int, len(outs))
	for i, o := range outs {
		o = strings.TrimPrefix(o, "?")
		if pos[i] = slices.Index(widened, o); pos[i] < 0 {
			pos[i] = len(widened)
			widened = append(widened, o)
		}
	}
	scans := map[string]*source.Result{} // per source URI, for atoms without IN variables
	var next []value.Row
	for _, b := range bindings {
		var src source.DataSource
		var err error
		switch {
		case a.Kind == GraphAtom:
			src = in.graphSource(q.Prefixes)
		case a.SourceVar != "":
			u := b[slices.Index(vars, a.SourceVar)]
			if u.IsNull() {
				continue
			}
			src, err = in.ResolveSource(u.Str())
		default:
			src, err = in.ResolveSource(a.SourceURI)
		}
		if err != nil {
			return nil, nil, err
		}
		var params []value.Value
		for _, iv := range a.Sub.InVars {
			params = append(params, b[slices.Index(vars, strings.TrimPrefix(iv, "?"))])
		}
		if slices.ContainsFunc(params, value.Value.IsNull) {
			continue
		}
		res := scans[src.URI()]
		if res == nil || len(params) > 0 {
			if res, err = src.Execute(a.Sub, params); err != nil {
				return nil, nil, err
			}
			if len(params) == 0 {
				scans[src.URI()] = res
			}
		}
		if len(res.Rows) > 0 && len(res.Cols) != len(outs) {
			return nil, nil, fmt.Errorf("oracle: atom %s returned %d columns for %d OUT variables",
				a.Designator(), len(res.Cols), len(outs))
		}
	rows:
		for _, r := range res.Rows {
			nb := make(value.Row, len(b), len(widened))
			copy(nb, b)
			for i, p := range pos {
				if p < len(nb) {
					if !value.Equal(nb[p], r[i]) {
						continue rows
					}
					continue
				}
				nb = append(nb, r[i])
			}
			next = append(next, nb)
		}
	}
	return widened, next, nil
}

// oracleAnswer is the reference answer to one query, computed once and
// checked against any number of executions.
type oracleAnswer struct {
	cols  []string
	rows  []value.Row    // the answer, LIMIT applied
	keys  []string       // without LIMIT: the rows' sorted keys
	avail map[string]int // with LIMIT: key multiplicities of the unlimited answer
}

func newOracleAnswer(in *Instance, q *CMQ) (*oracleAnswer, error) {
	cols, rows, err := oracleQuery(in, q)
	if err != nil {
		return nil, err
	}
	o := &oracleAnswer{cols: cols, rows: rows}
	if q.Limit == 0 {
		o.keys = sortedRows(&QueryResult{Rows: rows})
		return o, nil
	}
	unlimited := *q
	unlimited.Limit = 0
	_, all, err := oracleQuery(in, &unlimited)
	if err != nil {
		return nil, err
	}
	o.avail = make(map[string]int, len(all))
	for _, r := range all {
		o.avail[r.Key()]++
	}
	return o, nil
}

// check compares an execution result with the oracle's answer. The row
// count must be the oracle's, and under ORDER BY so must the sequence
// of sort-key values. Without LIMIT the row multisets must be equal.
// With LIMIT the rows must be a sub-multiset of the unlimited answer,
// since which tied rows survive the cut is unspecified.
func (o *oracleAnswer) check(q *CMQ, res *QueryResult) error {
	if !equalStrings(res.Cols, o.cols) {
		return fmt.Errorf("cols %v, oracle %v", res.Cols, o.cols)
	}
	if len(res.Rows) != len(o.rows) {
		return fmt.Errorf("%d rows, oracle %d", len(res.Rows), len(o.rows))
	}
	if q.OrderBy != "" {
		ci := slices.Index(o.cols, q.OrderBy)
		for i, want := range o.rows {
			if res.Rows[i][ci].Key() != want[ci].Key() {
				return fmt.Errorf("ORDER BY ?%s: row %d sorts as %v, oracle %v", q.OrderBy, i, res.Rows[i][ci], want[ci])
			}
		}
	}
	got := sortedRows(res)
	if q.Limit == 0 {
		if !equalStrings(got, o.keys) {
			return fmt.Errorf("row multiset diverges\n got %v\nwant %v", got, o.keys)
		}
		return nil
	}
	used := map[string]int{}
	for _, k := range got {
		if used[k]++; used[k] > o.avail[k] {
			return fmt.Errorf("LIMIT %d: row %q is missing from the unlimited answer, or too often", q.Limit, k)
		}
	}
	return nil
}

// checkOracle checks one execution result against a fresh oracle
// answer.
func checkOracle(in *Instance, q *CMQ, res *QueryResult) error {
	o, err := newOracleAnswer(in, q)
	if err != nil {
		return err
	}
	return o.check(q, res)
}

// TestOracleSelfCheck pins the oracle on a hand-computed answer, so a
// bug in it cannot hide behind an executor that shares the bug.
func TestOracleSelfCheck(t *testing.T) {
	in, _ := batchFixture(t)
	cols, rows, err := oracleQuery(in, mustParse(t, batchQuery+"ORDER BY ?y DESC"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r[0].Str()+"="+r[1].String())
	}
	// Seed rows a, b, a, c, dup, missing, NULL: each 'a' matches twice,
	// 'c' drops its mismatching echo row, 'dup' keeps both copies,
	// 'missing' and NULL produce nothing.
	want := []string{"dup=7", "dup=7", "c=4", "b=3", "a=2", "a=2", "a=1", "a=1"}
	if !equalStrings(cols, []string{"x", "y"}) || !equalStrings(got, want) {
		t.Fatalf("oracle: cols %v rows %v, want %v", cols, got, want)
	}
}
