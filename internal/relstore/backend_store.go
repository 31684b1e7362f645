package relstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"

	"tatooine/internal/store"
	"tatooine/internal/value"
)

// storeTable is the B-tree-backed table backend. Rows live in a rows
// keyspace keyed by dense 8-byte big-endian row ids; the primary-key set
// is a keyspace of framed PK value keys. Writes become durable at the
// owning store's next Commit.
type storeTable struct {
	rows  store.KV
	pk    store.KV
	count int
	fe    error // first swallowed read error
}

func openStoreTable(st store.Store, prefix string) (*storeTable, error) {
	rows, err := st.Keyspace(prefix + "/rows")
	if err != nil {
		return nil, err
	}
	pk, err := st.Keyspace(prefix + "/pk")
	if err != nil {
		return nil, err
	}
	return &storeTable{rows: rows, pk: pk, count: rows.Len()}, nil
}

func (b *storeTable) fail(err error) {
	if err != nil && b.fe == nil {
		b.fe = err
	}
}

func (b *storeTable) err() error { return b.fe }

func (b *storeTable) rowCount() int { return b.count }

func rowIDKey(id int) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], uint64(id))
	return k[:]
}

// ixValPrefix encodes a value key as a store key. Short keys are
// length-framed verbatim (tag 0); long ones are replaced by their
// SHA-256 (tag 1) so keys stay within the store's inline key budget.
func ixValPrefix(valKey string) []byte {
	if len(valKey) > 512 {
		sum := sha256.Sum256([]byte(valKey))
		out := make([]byte, 1+len(sum))
		out[0] = 1
		copy(out[1:], sum[:])
		return out
	}
	out := make([]byte, 3, 3+len(valKey))
	out[0] = 0
	binary.BigEndian.PutUint16(out[1:], uint16(len(valKey)))
	return append(out, valKey...)
}

func (b *storeTable) insert(row value.Row, pkKey string) error {
	if pkKey != "" {
		k := ixValPrefix(pkKey)
		if _, dup, err := b.pk.Get(k); err != nil {
			return err
		} else if dup {
			return fmt.Errorf("relstore: duplicate primary key %v", pkKey)
		}
		if _, err := b.pk.Put(k, nil); err != nil {
			return err
		}
	}
	if _, err := b.rows.Put(rowIDKey(b.count), encodeRow(row)); err != nil {
		return err
	}
	b.count++
	return nil
}

func (b *storeTable) scan(fn func(row value.Row) bool) error {
	return b.scanProject(nil, fn)
}

func (b *storeTable) scanProject(need []bool, fn func(row value.Row) bool) error {
	var decErr error
	err := b.rows.Scan(nil, func(_, v []byte) bool {
		row, err := value.DecodeRowProject(v, need)
		if err != nil {
			decErr = err
			return false
		}
		return fn(row)
	})
	if err == nil {
		err = decErr
	}
	b.fail(err)
	return err
}

// diskCatalog persists table schemas for a store-backed database in a
// meta keyspace, so OpenDatabase can rebuild
// the table set on a warm start.
type diskCatalog struct {
	st     store.Store
	dbName string
	meta   store.KV
}

type tableMeta struct {
	Schema Schema `json:"schema"`
}

func (c *diskCatalog) tablePrefix(name string) string {
	return "rel/" + c.dbName + "/t/" + strings.ToLower(name)
}

func (c *diskCatalog) writeMeta(tm tableMeta) error {
	buf, err := json.Marshal(tm)
	if err != nil {
		return err
	}
	_, err = c.meta.Put([]byte("schema/"+strings.ToLower(tm.Schema.Name)), buf)
	return err
}

// createTable materializes a store-backed Table and records its schema
// in the catalog.
func (c *diskCatalog) createTable(schema Schema) (*Table, error) {
	be, err := openStoreTable(c.st, c.tablePrefix(schema.Name))
	if err != nil {
		return nil, err
	}
	if err := c.writeMeta(tableMeta{Schema: schema}); err != nil {
		return nil, err
	}
	return &Table{schema: schema, be: be}, nil
}

// OpenDatabase opens (or creates) a database persisted in st. Table
// schemas and rows are loaded from the store; changes become
// durable at the store's next Commit.
func OpenDatabase(st store.Store, name string) (*Database, error) {
	meta, err := st.Keyspace("rel/" + name + "/meta")
	if err != nil {
		return nil, err
	}
	cat := &diskCatalog{st: st, dbName: name, meta: meta}
	db := &Database{name: name, tables: make(map[string]*Table), disk: cat}
	// Collect metas first: createTable writes back to the meta keyspace,
	// which must not happen inside its own scan.
	var metas []tableMeta
	var loadErr error
	err = meta.Scan([]byte("schema/"), func(_, v []byte) bool {
		var tm tableMeta
		if err := json.Unmarshal(v, &tm); err != nil {
			loadErr = fmt.Errorf("relstore: open %s: corrupt table meta: %v", name, err)
			return false
		}
		metas = append(metas, tm)
		return true
	})
	if err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	for _, tm := range metas {
		t, err := cat.createTable(tm.Schema)
		if err != nil {
			return nil, err
		}
		db.tables[strings.ToLower(tm.Schema.Name)] = t
	}
	return db, nil
}
