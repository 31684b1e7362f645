package datagen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// TestCMQHeadAggregatesMatchRowLoop: a SQL sub-query does not group or
// aggregate; the CMQ head does, over the atom's rows. On the INSEE
// fixture, COUNT, COUNT DISTINCT, SUM, AVG, MIN and MAX in a head, with
// and without GROUP BY, equal a plain loop over the table's rows, and a
// global head over an empty WHERE match answers one row of COUNT 0 and
// NULLs.
func TestCMQHeadAggregatesMatchRowLoop(t *testing.T) {
	db, err := GenINSEE(rand.New(rand.NewSource(7)), smallConfig(), RegionalURIs)
	if err != nil {
		t.Fatal(err)
	}
	in := core.NewInstance(nil)
	if err := in.AddSource(source.NewRelSource(INSEEURI, db)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		table, group, val string // group "" aggregates the whole match
		year              int64
	}{
		{"resultats", "parti", "voix", 2015},
		{"resultats", "", "voix", 2016},
		{"chomage", "", "taux", 2014},
		{"chomage", "dept", "taux", 2016},
		{"resultats", "", "voix", 1999}, // no row matches
	} {
		name := fmt.Sprintf("%s/%s/%d", c.table, cmp.Or(c.group, "global"), c.year)
		t.Run(name, func(t *testing.T) {
			// Expected: one loop over Table.Scan, collecting the value
			// column and the departments per group.
			tbl := db.Table(c.table)
			schema := tbl.Schema()
			yi, vi, di := schema.ColumnIndex("annee"), schema.ColumnIndex(c.val), schema.ColumnIndex("dept")
			vals := map[string][]value.Value{}
			depts := map[string]map[string]bool{}
			if c.group == "" {
				vals[""] = nil
				depts[""] = map[string]bool{}
			}
			tbl.Scan(func(r value.Row) bool {
				if r[yi].Int() != c.year {
					return true
				}
				g := ""
				if c.group != "" {
					g = r[schema.ColumnIndex(c.group)].Str()
				}
				if depts[g] == nil {
					depts[g] = map[string]bool{}
				}
				vals[g] = append(vals[g], r[vi])
				depts[g][r[di].Str()] = true
				return true
			})

			head, out, groupBy := "", "?d, ?v", ""
			if c.group != "" {
				head, out, groupBy = "?g, ", "?g, ?d, ?v", "\nGROUP BY ?g"
			}
			res, err := in.Query(fmt.Sprintf(`QUERY q(%sCOUNT(?v) AS ?n, COUNT(DISTINCT ?d) AS ?nd,
  SUM(?v) AS ?s, AVG(?v) AS ?a, MIN(?v) AS ?lo, MAX(?v) AS ?hi)
FROM <sql://insee> OUT(%s) { SELECT %s FROM %s WHERE annee = %d }%s`,
				head, out, selectList(c.group, c.val), c.table, c.year, groupBy))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(vals) {
				t.Fatalf("%d result rows, the loop has %d groups", len(res.Rows), len(vals))
			}
			for _, row := range res.Rows {
				g := ""
				if c.group != "" {
					g, row = row[0].Str(), row[1:]
				}
				want := loopAggregates(vals[g], len(depts[g]))
				for i := range want {
					if !sameAggregate(row[i], want[i]) {
						t.Errorf("group %q column %s: head %v, loop %v", g, res.Cols[len(res.Cols)-len(want)+i], row[i], want[i])
					}
				}
			}
		})
	}
}

// selectList projects the group column (when any), dept and the value
// column, in the order of the atom's OUT list.
func selectList(group, val string) string {
	if group == "" {
		return "dept, " + val
	}
	return group + ", dept, " + val
}

// loopAggregates computes COUNT, COUNT DISTINCT (of departments, given
// as nd), SUM, AVG, MIN and MAX of vals, which hold no NULL: SUM keeps
// the column's kind, AVG is a float, and all but the counts are NULL
// over no values.
func loopAggregates(vals []value.Value, nd int) value.Row {
	null := value.NewNull()
	if len(vals) == 0 {
		return value.Row{value.NewInt(0), value.NewInt(int64(nd)), null, null, null, null}
	}
	var sum float64
	var sumInt int64
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		sum += v.Float()
		sumInt += v.Int()
		if c, _ := value.Compare(v, lo); c < 0 {
			lo = v
		}
		if c, _ := value.Compare(v, hi); c > 0 {
			hi = v
		}
	}
	s := value.NewFloat(sum)
	if vals[0].Kind() == value.Int {
		s = value.NewInt(sumInt)
	}
	return value.Row{value.NewInt(int64(len(vals))), value.NewInt(int64(nd)), s,
		value.NewFloat(sum / float64(len(vals))), lo, hi}
}

// sameAggregate compares kinds and values; floats may differ in the
// last bits, since the head may sum in another order than the loop.
func sameAggregate(got, want value.Value) bool {
	if got.Kind() != want.Kind() {
		return false
	}
	if want.Kind() == value.Float {
		return math.Abs(got.Float()-want.Float()) <= 1e-9*math.Max(1, math.Abs(want.Float()))
	}
	return value.Equal(got, want) || (got.IsNull() && want.IsNull())
}
