package source_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/sqlparse"
	"tatooine/internal/value"
)

// withLiterals returns a copy of e in which every '?' is tuple ps's
// value as a literal.
func withLiterals(e sqlparse.Expr, ps value.Row) sqlparse.Expr {
	sub := func(e sqlparse.Expr) sqlparse.Expr { return withLiterals(e, ps) }
	switch x := e.(type) {
	case *sqlparse.Param:
		return &sqlparse.Literal{Val: ps[x.Index]}
	case *sqlparse.BinaryExpr:
		return &sqlparse.BinaryExpr{Op: x.Op, Left: sub(x.Left), Right: sub(x.Right)}
	case *sqlparse.NotExpr:
		return &sqlparse.NotExpr{Inner: sub(x.Inner)}
	case *sqlparse.IsNullExpr:
		return &sqlparse.IsNullExpr{Inner: sub(x.Inner), Negate: x.Negate}
	case *sqlparse.InExpr:
		list := make([]sqlparse.Expr, len(x.List))
		for i, le := range x.List {
			list[i] = sub(le)
		}
		return &sqlparse.InExpr{Needle: sub(x.Needle), List: list, Negate: x.Negate}
	case *sqlparse.BetweenExpr:
		return &sqlparse.BetweenExpr{X: sub(x.X), Lo: sub(x.Lo), Hi: sub(x.Hi), Negate: x.Negate}
	case *sqlparse.FuncExpr:
		args := make([]sqlparse.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = sub(a)
		}
		return &sqlparse.FuncExpr{Name: x.Name, Args: args}
	default:
		return e
	}
}

// literalStatement is s with tuple ps's values in place of its '?'s.
func literalStatement(s *sqlparse.SelectStmt, ps value.Row) *sqlparse.SelectStmt {
	out := *s
	out.Columns = make([]sqlparse.SelectItem, len(s.Columns))
	for i, it := range s.Columns {
		out.Columns[i] = sqlparse.SelectItem{Expr: withLiterals(it.Expr, ps), Alias: it.Alias}
	}
	out.Joins = make([]sqlparse.JoinClause, len(s.Joins))
	for i, j := range s.Joins {
		out.Joins[i] = sqlparse.JoinClause{Left: j.Left, Table: j.Table, On: withLiterals(j.On, ps)}
	}
	if s.Where != nil {
		out.Where = withLiterals(s.Where, ps)
	}
	out.OrderBy = make([]sqlparse.OrderItem, len(s.OrderBy))
	for i, ob := range s.OrderBy {
		out.OrderBy[i] = sqlparse.OrderItem{Expr: withLiterals(ob.Expr, ps), Desc: ob.Desc}
	}
	return &out
}

// rowBytes is r as the row codec writes it, which tells every value
// apart (1 from 1.0, −0 from 0).
func rowBytes(rows []value.Row) []byte {
	var b []byte
	for _, r := range rows {
		b = value.AppendFrame(b, r)
	}
	return b
}

// batchOutcome counts what the differential checks saw, so a run that
// only ever errs or only ever answers nothing shows.
type batchOutcome struct{ rows, failed, batches int }

// checkAgainstLiterals runs text on s as one batch of sets and compares
// each tuple's answer with the reference: the statement with that
// tuple's values put in as literals, run with no parameters, so that no
// keyed or per-tuple code runs and every '=' is value.Equal. The batch
// must fail exactly when some tuple's reference fails, with one failing
// tuple's error, and otherwise give each tuple the reference's rows, in
// order.
func checkAgainstLiterals(t *testing.T, s *source.RelSource, text string, sets []value.Row, seen *batchOutcome) {
	t.Helper()
	stmt, err := sqlparse.ParseSelect(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	got, err := s.ExecuteBatch(source.SubQuery{Language: source.LangSQL, Text: text}, sets)
	var refErrs []string
	for i, ps := range sets {
		cols, ref, err := s.DB().ExecBatch(literalStatement(stmt, ps), []value.Row{nil})
		if err != nil {
			refErrs = append(refErrs, err.Error())
			continue
		}
		if got == nil {
			continue
		}
		// An expression's column is named by its text, '?' or literal.
		if len(got[i].Cols) != len(cols) || !bytes.Equal(rowBytes(got[i].Rows), rowBytes(ref[0])) {
			t.Errorf("%s\ntuple %d %v: batch gave %v %v, literals %v %v", text, i, ps, got[i].Cols, got[i].Rows, cols, ref[0])
		}
		seen.rows += len(ref[0])
	}
	if (err != nil) != (len(refErrs) > 0) || err != nil && !slices.Contains(refErrs, err.Error()) {
		t.Errorf("%s\ntuples %v: batch error %v, literal errors %q", text, sets, err, refErrs)
	}
	if err != nil {
		seen.failed++
	}
	seen.batches++
}

// randomRelSource is two tables, t(a, b, c) and u(a, d), whose columns
// take random types, filled with up to 12 rows of cells from small
// domains, so equalities hit: INT, FLOAT with −0, NaN and integral
// values, TEXT that looks numeric, TIME, and NULL.
func randomRelSource(t *testing.T, r *rand.Rand) *source.RelSource {
	kinds := []value.Kind{value.Int, value.Float, value.String, value.Time}
	db := relstore.NewDatabase("r")
	for _, tbl := range []struct {
		name string
		cols []string
	}{{"t", []string{"a", "b", "c"}}, {"u", []string{"a", "d"}}} {
		schema := relstore.Schema{Name: tbl.name}
		for _, c := range tbl.cols {
			schema.Columns = append(schema.Columns, relstore.Column{Name: c, Type: kinds[r.Intn(len(kinds))]})
		}
		table, err := db.CreateTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		for n := r.Intn(13); n > 0; n-- {
			row := make(value.Row, len(schema.Columns))
			for i, c := range schema.Columns {
				if r.Intn(6) > 0 {
					row[i] = randomValue(r, c.Type)
				}
			}
			if err := table.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return source.NewRelSource("sql://r", db)
}

var (
	randomFloats  = []float64{0, math.Copysign(0, -1), 1, 2, -1, 0.5, math.NaN()}
	randomStrings = []string{"a", "b", "x", "1", "0", "1.5", ""}
	randomTimes   = []time.Time{time.Date(2016, 3, 1, 3, 42, 31, 0, time.UTC), time.Date(2016, 3, 2, 0, 0, 0, 0, time.UTC)}
)

func randomValue(r *rand.Rand, k value.Kind) value.Value {
	switch k {
	case value.Int:
		return value.NewInt(r.Int63n(5) - 2)
	case value.Float:
		return value.NewFloat(randomFloats[r.Intn(len(randomFloats))])
	case value.String:
		return value.NewString(randomStrings[r.Intn(len(randomStrings))])
	case value.Time:
		return value.NewTime(randomTimes[r.Intn(len(randomTimes))])
	default:
		return value.NewNull()
	}
}

// randomStatement is a SELECT over t (and u when it joins) with one to
// three '?'s: in a keyed `col = ?` (either side, first or later), in a
// residual conjunct (a comparison, an IN list, inside an OR), in the
// projection, ORDER BY or ON, beside conjuncts that can fail (`/ 0`,
// ABS over text or NULL), with DISTINCT, ORDER BY, LIMIT and OFFSET.
func randomStatement(r *rand.Rand) string {
	for {
		var b strings.Builder
		cols := []string{"t.a", "t.b", "t.c"}
		join := ""
		switch r.Intn(4) {
		case 1:
			join = " JOIN u ON t.a = u.a"
		case 2:
			join = " LEFT JOIN u ON t.b = u.a"
		case 3:
			join = " LEFT JOIN u ON t.a = u.a AND u.d = ?"
		}
		if join != "" {
			cols = append(cols, "u.a", "u.d")
		}
		col := func() string { return cols[r.Intn(len(cols))] }
		pick := func(forms ...string) string {
			return strings.ReplaceAll(forms[r.Intn(len(forms))], "$", col())
		}
		distinct := r.Intn(4) == 0
		b.WriteString("SELECT ")
		if distinct {
			b.WriteString("DISTINCT ")
		}
		for i := r.Intn(3); i >= 0; i-- {
			b.WriteString(pick("$", "$", "?", "$ + ?", "LOWER($)", "COALESCE($, ?)"))
			if i > 0 {
				b.WriteString(", ")
			}
		}
		b.WriteString(" FROM t" + join)
		if n := r.Intn(5); n > 0 {
			b.WriteString(" WHERE ")
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteString(" AND ")
				}
				b.WriteString(pick("$ = ?", "$ = ?", "? = $", "$ > ?", "$ IN (?, 'x')", "($ = ? OR $ = 1)",
					"$ / 0 > 1", "ABS($) >= 0", "$ IS NOT NULL", "$ = 1", "$ != ?", "NOT $ < ?"))
			}
		}
		if n := r.Intn(3); n > 0 {
			b.WriteString(" ORDER BY ")
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteString(", ")
				}
				// Under DISTINCT a key must be a selected column, and a key
				// holding a '?' never is one: its literal form could be.
				if distinct {
					b.WriteString(pick("$", "$ DESC"))
				} else {
					b.WriteString(pick("$", "$ DESC", "$ = ?", "? DESC"))
				}
			}
		}
		if r.Intn(3) == 0 {
			fmt.Fprintf(&b, " LIMIT %d", r.Intn(3))
			if r.Intn(2) == 0 {
				fmt.Fprintf(&b, " OFFSET %d", r.Intn(2))
			}
		}
		if n := strings.Count(b.String(), "?"); n >= 1 && n <= 3 {
			return b.String()
		}
	}
}

// randomTuples is a batch of one to six tuples of n values, with
// duplicate tuples and an all-NULL tuple among them.
func randomTuples(r *rand.Rand, n int) []value.Row {
	kinds := []value.Kind{value.Int, value.Float, value.String, value.Time, value.Null}
	sets := make([]value.Row, 1+r.Intn(6))
	for i := range sets {
		switch {
		case i > 0 && r.Intn(4) == 0:
			sets[i] = sets[r.Intn(i)]
		case r.Intn(8) == 0:
			sets[i] = make(value.Row, n)
		default:
			sets[i] = make(value.Row, n)
			for j := range sets[i] {
				sets[i][j] = randomValue(r, kinds[r.Intn(len(kinds))])
			}
		}
	}
	return sets
}

// TestRelSourceExecuteBatchINListPushdown: a keyed probe with a
// residual conjunct, a key no row has and a duplicate tuple.
func TestRelSourceExecuteBatchINListPushdown(t *testing.T) {
	assertBatchMatchesSerialAndLiterals(t, "SELECT k, v FROM t WHERE k = ? AND v >= 1", strs("a", "b", "nope", "a"))
}

// TestRelSourceExecuteBatchMultiParamCrossProduct: two keyed parameters
// whose cross product holds rows no tuple asked for; each tuple keeps
// only its own rows.
func TestRelSourceExecuteBatchMultiParamCrossProduct(t *testing.T) {
	assertBatchMatchesSerialAndLiterals(t, "SELECT grp FROM t WHERE k = ? AND v = ?", []value.Row{
		{value.NewString("a"), value.NewInt(1)},
		{value.NewString("b"), value.NewInt(3)}, // (a,3) and (b,1) exist but were not asked for
	})
}

func TestRelSourceExecuteBatchOrderByPreserved(t *testing.T) {
	assertBatchMatchesSerialAndLiterals(t, "SELECT k, v FROM t WHERE k = ? ORDER BY v DESC", strs("a", "b"))
}

// TestRelSourceExecuteBatchUnsupportedShapes: the shapes an IN-list
// rewrite cannot answer — a LIMIT or DISTINCT that holds per tuple, a
// '?' in a range or under OR — are answered in the same one pass.
func TestRelSourceExecuteBatchUnsupportedShapes(t *testing.T) {
	for _, text := range []string{
		"SELECT k FROM t WHERE k = ? LIMIT 1",
		"SELECT DISTINCT k FROM t WHERE k = ?",
		"SELECT k FROM t WHERE v >= ?",
		"SELECT k FROM t WHERE k = ? OR grp = 'g1'",
	} {
		assertBatchMatchesSerialAndLiterals(t, text, strs("a", "b"))
	}
	assertBatchMatchesSerialAndLiterals(t, "SELECT k FROM t WHERE v >= ?", []value.Row{{value.NewInt(2)}, {value.NewInt(9)}})
}

// assertBatchMatchesSerialAndLiterals checks text, a batch over the
// relational fixture, against per-tuple Execute and against literal
// substitution.
func assertBatchMatchesSerialAndLiterals(t *testing.T, text string, sets []value.Row) {
	t.Helper()
	s := relFixture(t)
	assertBatchMatchesSerial(t, s, source.SubQuery{Language: source.LangSQL, Text: text}, sets)
	checkAgainstLiterals(t, s, text, sets, &batchOutcome{})
}

// TestRelSourceBatchMatchesLiterals checks RelSource.ExecuteBatch
// against literal substitution (checkAgainstLiterals) over 200 random
// tables × 30 random statements.
func TestRelSourceBatchMatchesLiterals(t *testing.T) {
	var seen batchOutcome
	r := rand.New(rand.NewSource(53))
	for range 200 {
		s := randomRelSource(t, r)
		for range 30 {
			text := randomStatement(r)
			checkAgainstLiterals(t, s, text, randomTuples(r, strings.Count(text, "?")), &seen)
		}
	}
	if seen.rows < 1000 || seen.failed < 100 || seen.failed > seen.batches/2 {
		t.Errorf("the statements check little: %d batches, %d failed, %d reference rows", seen.batches, seen.failed, seen.rows)
	}
}

// TestBatchReadsOneSnapshot: while one goroutine appends rows
// n = 0, 1, 2, … (with g = n mod 4) to a table, batches over it — a
// plain probe and a LIMIT shape — each answer every tuple from one
// prefix of those inserts.
func TestBatchReadsOneSnapshot(t *testing.T) {
	const rows, groups = 2000, 4
	db := relstore.NewDatabase("d")
	tbl, err := db.CreateTable(relstore.Schema{Name: "t", Columns: []relstore.Column{
		{Name: "n", Type: value.Int}, {Name: "g", Type: value.Int}}})
	if err != nil {
		t.Fatal(err)
	}
	s := source.NewRelSource("sql://d", db)
	sets := []value.Row{{value.NewInt(0)}, {value.NewInt(1)}, {value.NewInt(2)}, {value.NewInt(3)}, {value.NewInt(0)}}
	all := source.SubQuery{Language: source.LangSQL, Text: "SELECT n FROM t WHERE g = ?"}
	last := source.SubQuery{Language: source.LangSQL, Text: "SELECT n FROM t WHERE g = ? ORDER BY n DESC LIMIT 1"}

	// prefix returns the one prefix length p every tuple's answer agrees
	// with: tuple g holds the rows n < p with n mod 4 = g (only the
	// largest under LIMIT 1), in the order asked for.
	prefix := func(results []*source.Result, limited bool) (int, error) {
		p := 0
		for _, res := range results {
			for _, row := range res.Rows {
				p = max(p, int(row[0].Int())+1)
			}
		}
		for i, res := range results {
			var want []int64
			for n := p - 1; n >= 0; n-- {
				if n%groups == int(sets[i][0].Int()) {
					want = append(want, int64(n))
				}
			}
			if limited {
				want = want[:min(1, len(want))]
			} else {
				slices.Reverse(want)
			}
			got := make([]int64, len(res.Rows))
			for j, row := range res.Rows {
				got[j] = row[0].Int()
			}
			if !slices.Equal(got, want) {
				return 0, fmt.Errorf("tuple %d: rows %v, want %v for the prefix of %d rows", i, got, want, p)
			}
		}
		return p, nil
	}

	// The inserter starts once both readers are about to run, and every
	// reader runs one batch more after the last insert, which must see
	// every row.
	var wg, ready sync.WaitGroup
	done := make(chan struct{})
	ready.Add(2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		ready.Wait()
		for n := range rows {
			if err := tbl.Insert(value.Row{value.NewInt(int64(n)), value.NewInt(int64(n % groups))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	errs := make(chan error, 2)
	for _, c := range []struct {
		q       source.SubQuery
		limited bool
	}{{all, false}, {last, true}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			for {
				var last bool
				select {
				case <-done:
					last = true
				default:
				}
				results, err := s.ExecuteBatch(c.q, sets)
				var p int
				if err == nil {
					p, err = prefix(results, c.limited)
				}
				if err == nil && last && p != rows {
					err = fmt.Errorf("after the last insert, a prefix of %d rows", p)
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %w", c.q.Text, err)
					return
				}
				if last {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
