// Package relstore implements TATOOINE's relational substrate: a
// column-typed table store with primary and foreign keys and a
// SQL-subset executor. It stands in for the curated relational
// databases (INSEE, Ministry of Interior) that the paper's mixed
// instances contain. Tables live in memory only: a source is queried
// where it lives, and the mediator persists nothing but its own graph
// G and saturation G∞ (internal/core).
package relstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tatooine/internal/value"
)

// Column describes one table column.
type Column struct {
	Name string
	Type value.Kind
}

// ForeignKey links a column to a referenced table/column.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// Schema describes a table.
type Schema struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Table is a relation: an append-only row slice and a primary-key
// set. All methods are safe for concurrent use.
type Table struct {
	mu     sync.RWMutex
	schema Schema
	rows   []value.Row
	pkSet  map[string]struct{}
}

// Schema returns a copy of the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends a row after type-checking it against the schema. String
// values are coerced to the declared column types when possible. Primary
// key duplicates are rejected.
func (t *Table) Insert(row value.Row) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("relstore: table %s: row has %d values, schema has %d columns",
			t.schema.Name, len(row), len(t.schema.Columns))
	}
	typed := make(value.Row, len(row))
	for i, v := range row {
		if v.IsNull() {
			typed[i] = v
			continue
		}
		want := t.schema.Columns[i].Type
		if v.Kind() == want {
			typed[i] = v
			continue
		}
		coerced, ok := value.Coerce(v, want)
		if !ok {
			return fmt.Errorf("relstore: table %s column %s: cannot store %s as %s",
				t.schema.Name, t.schema.Columns[i].Name, v.Kind(), want)
		}
		typed[i] = coerced
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.schema.PrimaryKey) > 0 {
		pkKey := t.pkKeyLocked(typed)
		if _, dup := t.pkSet[pkKey]; dup {
			return t.duplicateKeyError(typed)
		}
		t.pkSet[pkKey] = struct{}{}
	}
	t.rows = append(t.rows, typed)
	return nil
}

func (t *Table) pkKeyLocked(row value.Row) string {
	parts := make(value.Row, 0, len(t.schema.PrimaryKey))
	for _, col := range t.schema.PrimaryKey {
		parts = append(parts, row[t.schema.ColumnIndex(col)])
	}
	return parts.Key()
}

// duplicateKeyError names the table, its key columns and row's
// key values, as SQL literals:
// relstore: table "t": duplicate primary key (a, b) = ('x', 2).
func (t *Table) duplicateKeyError(row value.Row) error {
	vals := make([]string, len(t.schema.PrimaryKey))
	for i, col := range t.schema.PrimaryKey {
		v := row[t.schema.ColumnIndex(col)]
		switch v.Kind() {
		case value.Null:
			vals[i] = "NULL"
		case value.String, value.Time:
			vals[i] = "'" + strings.ReplaceAll(v.String(), "'", "''") + "'"
		default:
			vals[i] = v.String()
		}
	}
	return fmt.Errorf("relstore: table %q: duplicate primary key (%s) = (%s)",
		t.schema.Name, strings.Join(t.schema.PrimaryKey, ", "), strings.Join(vals, ", "))
}

// Scan calls fn with each row, in insertion order. A stored row never
// changes once Insert has typed it, so fn may keep it but must not
// mutate it. Iteration stops when fn returns false.
func (t *Table) Scan(fn func(row value.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if !fn(r) {
			return
		}
	}
}

// snapshot returns the rows stored so far, read in place: a stored row
// is never changed once Insert has typed it, and the slice's capacity
// is capped at its length, so an append by the caller copies instead
// of writing into the table.
func (t *Table) snapshot() []value.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// Database is a named collection of tables.
type Database struct {
	mu     sync.RWMutex
	name   string
	tables map[string]*Table
}

// NewDatabase creates an empty in-memory database.
func NewDatabase(name string) *Database {
	return &Database{name: name, tables: make(map[string]*Table)}
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// CreateTable registers a new table; the name must be unused.
func (db *Database) CreateTable(schema Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(schema.Name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("relstore: table %q already exists", schema.Name)
	}
	// Validate foreign keys against existing tables.
	for _, fk := range schema.ForeignKeys {
		ref, ok := db.tables[strings.ToLower(fk.RefTable)]
		if !ok {
			return nil, fmt.Errorf("relstore: foreign key references unknown table %q", fk.RefTable)
		}
		if ref.schema.ColumnIndex(fk.RefColumn) < 0 {
			return nil, fmt.Errorf("relstore: foreign key references unknown column %s.%s", fk.RefTable, fk.RefColumn)
		}
		if schema.ColumnIndex(fk.Column) < 0 {
			return nil, fmt.Errorf("relstore: foreign key on unknown column %q", fk.Column)
		}
	}
	t := &Table{schema: schema, pkSet: make(map[string]struct{})}
	db.tables[key] = t
	return t, nil
}

// Table returns the named table (case-insensitive), or nil.
func (db *Database) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// Tables returns all tables sorted by name.
func (db *Database) Tables() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
