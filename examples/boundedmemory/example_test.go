package main

import (
	"bytes"
	"testing"
)

// TestRun runs the walkthrough twice on one directory: a fresh store,
// then a warm boot, each under the default 1 MiB page cache and 16 KiB
// join budget.
func TestRun(t *testing.T) {
	*dataDir = t.TempDir()
	for _, want := range []string{`fresh store — seeded from the generated dataset
point lookups: head of state ×1 rows per query
store: 1805 pages on disk (7.1 MiB), 256 resident (cap 256) — 86% of the file out of memory
spilling join: 135000 rows under a 16 KiB build budget — 1 join(s) spilled, 666111 B written to disk
unbounded rerun: 135000 rows (identical multiset), 0 join(s) spilled
`, `warm boot from existing store (terms page in lazily — no bulk dictionary load)
point lookups: head of state ×1 rows per query
store: 1805 pages on disk (7.1 MiB), 60 resident (cap 256) — 97% of the file out of memory
spilling join: 135000 rows under a 16 KiB build budget — 1 join(s) spilled, 666111 B written to disk
unbounded rerun: 135000 rows (identical multiset), 0 join(s) spilled
`} {
		var out bytes.Buffer
		if err := run(&out); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != want {
			t.Errorf("output:\n%s\nwant:\n%s", got, want)
		}
	}
}
