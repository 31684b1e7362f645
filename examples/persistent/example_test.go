package main

import (
	"bytes"
	"regexp"
	"testing"
)

// TestRun runs the walkthrough twice on one directory: the first run
// seeds the store, the second boots warm and recomputes nothing.
func TestRun(t *testing.T) {
	*dataDir = t.TempDir()
	for _, want := range []string{`fresh store — seeding politicians…
persons via G∞: 3 rows
saturation: mode=delta derived=3 fullRecomputes=1
store: 12 pages, 3 commits, 78020 B WAL
`, `warm boot in <d> — epoch 1, G=6 triples
persons via G∞: 3 rows
saturation: mode=delta derived=3 fullRecomputes=0
store: 12 pages, 0 commits, 8 B WAL
`} {
		var out bytes.Buffer
		if err := run(&out); err != nil {
			t.Fatal(err)
		}
		got := regexp.MustCompile(`boot in \S+`).ReplaceAllString(out.String(), "boot in <d>")
		if got != want {
			t.Errorf("output:\n%s\nwant:\n%s", got, want)
		}
	}
}
