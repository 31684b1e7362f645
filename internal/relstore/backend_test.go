package relstore

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"tatooine/internal/store"
	"tatooine/internal/value"
)

// runBothDBs runs fn against an in-memory database and a store-backed
// one, so table behavior is pinned backend-agnostically.
func runBothDBs(t *testing.T, fn func(t *testing.T, db *Database)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		fn(t, NewDatabase("test"))
	})
	t.Run("store", func(t *testing.T) {
		st, err := store.Open(filepath.Join(t.TempDir(), "rel.db"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		db, err := OpenDatabase(st, "test")
		if err != nil {
			t.Fatal(err)
		}
		fn(t, db)
		for _, tb := range db.Tables() {
			if err := tb.StoreErr(); err != nil {
				t.Fatalf("table %s store error: %v", tb.Name(), err)
			}
		}
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
	runBothDBs(t, func(t *testing.T, db *Database) {
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
	runBothDBs(t, func(t *testing.T, db *Database) {
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
		rows := tb.Rows()
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

func TestStoreDatabasePersistAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.db")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabase(st, "insee")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(citySchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tb.Insert(value.Row{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("c%d", i%10)),
			value.NewInt(int64(i * 7)),
		})
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	db2, err := OpenDatabase(st2, "insee")
	if err != nil {
		t.Fatal(err)
	}
	tb2 := db2.Table("CITY")
	if tb2 == nil {
		t.Fatal("table lost on reopen")
	}
	if tb2.RowCount() != 200 {
		t.Fatalf("reopened rowcount = %d", tb2.RowCount())
	}
	sc := tb2.Schema()
	if len(sc.Columns) != 3 || sc.Columns[1].Name != "name" || len(sc.PrimaryKey) != 1 {
		t.Fatalf("reopened schema = %+v", sc)
	}
	// Row values survive reopen.
	c3 := 0
	tb2.Scan(func(r value.Row) bool {
		if r[1].Str() == "c3" {
			c3++
		}
		return true
	})
	if c3 != 20 {
		t.Fatalf("reopened scan found %d rows named c3, want 20", c3)
	}
	// PK set survives: an old id must still be rejected.
	if err := tb2.Insert(value.Row{value.NewInt(5), value.NewString("x"), value.NewInt(0)}); err == nil {
		t.Fatal("reopened table accepted duplicate primary key")
	}
	// New inserts continue row ids without clobbering.
	if err := tb2.Insert(value.Row{value.NewInt(1000), value.NewString("new"), value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if tb2.RowCount() != 201 {
		t.Fatalf("rowcount after insert = %d", tb2.RowCount())
	}
}

func TestBackendsCSVImport(t *testing.T) {
	data := "id,name,pop,founded\n1,paris,2200000,1800-01-01T00:00:00Z\n2,lyon,510000,\n3,nice,340000,1860-01-01T00:00:00Z\n"
	runBothDBs(t, func(t *testing.T, db *Database) {
		tb, err := db.ImportCSVString("cities", data)
		if err != nil {
			t.Fatal(err)
		}
		if tb.RowCount() != 3 {
			t.Fatalf("rowcount = %d", tb.RowCount())
		}
		sc := tb.Schema()
		if sc.Columns[0].Type != value.Int || sc.Columns[1].Type != value.String ||
			sc.Columns[2].Type != value.Int || sc.Columns[3].Type != value.Time {
			t.Fatalf("inferred schema = %+v", sc.Columns)
		}
		rows := tb.Rows()
		if rows[1][3].Kind() != value.Null {
			t.Fatalf("empty cell = %v, want null", rows[1][3])
		}
	})
}

// TestCSVStreamsBeyondSample pins that rows past the inference sample
// stream correctly (the old implementation buffered everything; this
// guards the streaming rewrite's seam at row 100/101).
func TestCSVStreamsBeyondSample(t *testing.T) {
	var b []byte
	b = append(b, "n\n"...)
	for i := 0; i < inferSample+50; i++ {
		b = append(b, fmt.Sprintf("%d\n", i)...)
	}
	runBothDBs(t, func(t *testing.T, db *Database) {
		tb, err := db.ImportCSVString("nums", string(b))
		if err != nil {
			t.Fatal(err)
		}
		if tb.RowCount() != inferSample+50 {
			t.Fatalf("rowcount = %d, want %d", tb.RowCount(), inferSample+50)
		}
		i := 0
		tb.Scan(func(r value.Row) bool {
			if r[0].Int() != int64(i) {
				t.Fatalf("row %d = %v", i, r[0])
			}
			i++
			return true
		})
	})
}

func TestRowCodecRejectsCorrupt(t *testing.T) {
	good := encodeRow(value.Row{value.NewString("abc"), value.NewInt(7)})
	if _, err := decodeRow(good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		{},
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0xFF),
	} {
		if _, err := decodeRow(bad); err == nil {
			t.Fatalf("decodeRow accepted corrupt input %v", bad)
		}
	}
}

// TestBackendsScanProject pins the column-pruned scan contract on both
// backends: pruned columns arrive as Nulls at their original positions,
// needed ones carry their stored values, and a nil mask is a full scan.
func TestBackendsScanProject(t *testing.T) {
	runBothDBs(t, func(t *testing.T, db *Database) {
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
		rows := tb.RowsProject([]bool{true, false, true})
		if len(rows) != 20 {
			t.Fatalf("projected rows = %d, want 20", len(rows))
		}
		for i, r := range rows {
			if len(r) != 3 {
				t.Fatalf("row %d has %d values, want 3", i, len(r))
			}
			if r[0].Int() != int64(i) || r[2].Int() != int64(i*1000) {
				t.Fatalf("row %d needed columns wrong: %v", i, r)
			}
			if !r[1].IsNull() {
				t.Fatalf("row %d pruned column not Null: %v", i, r[1])
			}
		}
		if full := tb.RowsProject(nil); len(full) != 20 || full[7][1].Str() != "city7" {
			t.Fatalf("nil mask should scan all columns: %v", full[7])
		}
		// Pruned scans feed the executor: a query touching only id/pop
		// must not depend on the pruned name column.
		res, err := db.Exec("SELECT id, pop FROM city WHERE pop >= 18000 ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 || res.Rows[0][0].Int() != 18 || res.Rows[1][1].Int() != 19000 {
			t.Fatalf("pruned query wrong: %v", res.Rows)
		}
		// And a query that does need every column still sees them all.
		res, err = db.Exec("SELECT * FROM city WHERE id = 7")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][1].Str() != "city7" {
			t.Fatalf("star query wrong: %v", res.Rows)
		}
	})
}
