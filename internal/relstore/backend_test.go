package relstore

import (
	"fmt"
	"testing"
	"time"

	"tatooine/internal/value"
)

// runDB runs fn against a fresh in-memory database as the "mem"
// subtest.
func runDB(t *testing.T, fn func(t *testing.T, db *Database)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		fn(t, NewDatabase("test"))
	})
}

func citySchema() Schema {
	return Schema{
		Name: "city",
		Columns: []Column{
			{Name: "id", Type: value.Int},
			{Name: "name", Type: value.String},
			{Name: "pop", Type: value.Int},
		},
		PrimaryKey: []string{"id"},
	}
}

func TestBackendsInsertScanRowCount(t *testing.T) {
	runDB(t, func(t *testing.T, db *Database) {
		tb, err := db.CreateTable(citySchema())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			err := tb.Insert(value.Row{
				value.NewInt(int64(i)),
				value.NewString(fmt.Sprintf("city%d", i)),
				value.NewInt(int64(1000 * i)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if tb.RowCount() != 50 {
			t.Fatalf("rowcount = %d", tb.RowCount())
		}
		// Scan preserves insertion order.
		i := 0
		tb.Scan(func(r value.Row) bool {
			if r[0].Int() != int64(i) {
				t.Fatalf("scan row %d has id %d", i, r[0].Int())
			}
			i++
			return true
		})
		if i != 50 {
			t.Fatalf("scan visited %d rows", i)
		}
		// Duplicate PK rejected.
		err = tb.Insert(value.Row{value.NewInt(3), value.NewString("dup"), value.NewInt(0)})
		if err == nil {
			t.Fatal("duplicate primary key accepted")
		}
	})
}

func TestBackendsAllValueKinds(t *testing.T) {
	runDB(t, func(t *testing.T, db *Database) {
		tb, err := db.CreateTable(Schema{
			Name: "kinds",
			Columns: []Column{
				{Name: "s", Type: value.String},
				{Name: "i", Type: value.Int},
				{Name: "f", Type: value.Float},
				{Name: "b", Type: value.Bool},
				{Name: "t", Type: value.Time},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := time.Date(2016, 5, 4, 12, 30, 0, 123456789, time.UTC)
		want := value.Row{
			value.NewString("héllo \x00 world"),
			value.NewInt(-42),
			value.NewFloat(3.25),
			value.NewBool(true),
			value.NewTime(ts),
		}
		if err := tb.Insert(want.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(value.Row{value.NewNull(), value.NewNull(), value.NewNull(), value.NewNull(), value.NewNull()}); err != nil {
			t.Fatal(err)
		}
		var rows []value.Row
		tb.Scan(func(r value.Row) bool {
			rows = append(rows, r)
			return true
		})
		if len(rows) != 2 {
			t.Fatalf("rows = %d", len(rows))
		}
		for i, v := range want {
			got := rows[0][i]
			if got.Kind() != v.Kind() || got.Key() != v.Key() {
				t.Fatalf("col %d: got %v (%v), want %v (%v)", i, got, got.Kind(), v, v.Kind())
			}
		}
		if !rows[0][4].Time().Equal(ts) {
			t.Fatalf("time roundtrip: got %v, want %v", rows[0][4].Time(), ts)
		}
		for i, v := range rows[1] {
			if !v.IsNull() {
				t.Fatalf("null col %d roundtripped as %v", i, v)
			}
		}
	})
}

// TestBackendsScanProject pins that a query reading some columns and
// one reading them all both see the stored values.
func TestBackendsScanProject(t *testing.T) {
	runDB(t, func(t *testing.T, db *Database) {
		tb, err := db.CreateTable(citySchema())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			err := tb.Insert(value.Row{
				value.NewInt(int64(i)),
				value.NewString(fmt.Sprintf("city%d", i)),
				value.NewInt(int64(i * 1000)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := exec(db, "SELECT id, pop FROM city WHERE pop >= 18000 ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 || res.Rows[0][0].Int() != 18 || res.Rows[1][1].Int() != 19000 {
			t.Fatalf("id, pop query wrong: %v", res.Rows)
		}
		// A query that reads every column sees them all.
		res, err = exec(db, "SELECT * FROM city WHERE id = 7")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][1].Str() != "city7" {
			t.Fatalf("star query wrong: %v", res.Rows)
		}
	})
}
