package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun pins the text clouds and the storyline line against
// testdata/output.golden (the synthetic corpus is seeded, so the
// output is the same on every run) and checks the HTML was written.
func TestRun(t *testing.T) {
	*out = filepath.Join(t.TempDir(), "tagcloud.html")
	var b bytes.Buffer
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.ReplaceAll(b.String(), *out, "<out>"); got != string(want) {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
	html, err := os.ReadFile(*out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(html, []byte("<table>")) {
		t.Error("tag cloud HTML has no table")
	}
}
