package relstore

import (
	"fmt"

	"tatooine/internal/value"
)

// memTable is the default in-memory table backend: an append-only row
// slice and a primary-key set.
type memTable struct {
	rows  []value.Row
	pkSet map[string]struct{}
}

func newMemTable() *memTable {
	return &memTable{pkSet: make(map[string]struct{})}
}

func (b *memTable) rowCount() int { return len(b.rows) }

func (b *memTable) insert(row value.Row, pkKey string) error {
	if pkKey != "" {
		if _, dup := b.pkSet[pkKey]; dup {
			return fmt.Errorf("relstore: duplicate primary key %v", pkKey)
		}
		b.pkSet[pkKey] = struct{}{}
	}
	b.rows = append(b.rows, row)
	return nil
}

func (b *memTable) scan(fn func(row value.Row) bool) error {
	for _, r := range b.rows {
		if !fn(r) {
			return nil
		}
	}
	return nil
}

func (b *memTable) scanProject(need []bool, fn func(row value.Row) bool) error {
	if need == nil {
		return b.scan(fn)
	}
	// Rows are already resident; masking buys nothing on the storage
	// side, but callers (and tests) rely on pruned columns being Null.
	masked := make(value.Row, 0, 16)
	for _, r := range b.rows {
		masked = masked[:0]
		for i, v := range r {
			if i < len(need) && need[i] {
				masked = append(masked, v)
			} else {
				masked = append(masked, value.NewNull())
			}
		}
		if !fn(masked) {
			return nil
		}
	}
	return nil
}

func (b *memTable) err() error { return nil }
