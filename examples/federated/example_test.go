package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun checks the output's stable part: ports, the order in which
// regions are served, timings and trace IDs vary from run to run; the
// discovered sources, the ordered answer and the trace's shape do not.
func TestRun(t *testing.T) {
	var b bytes.Buffer
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var answer []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 4 && strings.HasPrefix(f[0], "region") {
			answer = append(answer, f[2]+" "+f[3])
		}
	}
	const want = "population 93349, communes 73320, entreprises 63843, population 50259, communes 47661, " +
		"population 42372, entreprises 38800, communes 24215, entreprises 6360"
	if got := strings.Join(answer, ", "); got != want {
		t.Errorf("answer rows (indicator, value): %s\nwant: %s", got, want)
	}
	for line, n := range map[string]int{
		"serving sql://region-":                              3,
		"dynamically discovered 3 sources; 9 result rows:\n": 1,
		"streamed: all 9 rows in ":                           1,
		"trace of the streamed execution:\n":                 1,
		"scan  ":                                             4,
		"remote /batch  ":                                    3,
	} {
		if got := strings.Count(out, line); got != n {
			t.Errorf("%q appears %d times, want %d, in:\n%s", line, got, n, out)
		}
	}
}
