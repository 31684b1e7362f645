package main

import (
	"errors"
	"strings"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

var errExecuted = errors.New("sub-query executed")

// refusingSource fails every execution, so any probe a command sends
// surfaces as errExecuted.
type refusingSource struct{}

func (refusingSource) URI() string                           { return "sql://refusing" }
func (refusingSource) Model() source.Model                   { return source.RelationalModel }
func (refusingSource) Languages() []source.Language          { return []source.Language{source.LangSQL} }
func (refusingSource) EstimateCost(source.SubQuery, int) int { return 1 }
func (refusingSource) Execute(source.SubQuery, []value.Value) (*source.Result, error) {
	return nil, errExecuted
}

// TestExplainExecutesNothing: "tatooine explain" plans the query and
// prints the plan without sending a single sub-query; "tatooine query"
// on the same instance does execute.
func TestExplainExecutesNothing(t *testing.T) {
	in := core.NewInstance(nil)
	if err := in.AddSource(refusingSource{}); err != nil {
		t.Fatal(err)
	}
	args := []string{"-q", `
QUERY q(?x, ?y)
FROM <sql://refusing> OUT(?x) { SELECT k FROM seed }
FROM <sql://refusing> IN(?x) OUT(?x, ?y) { SELECT k, v FROM t WHERE k = ? }`}
	if err := cmdQuery(in, args, true); err != nil {
		t.Fatalf("explain: %v", err)
	}
	if err := cmdQuery(in, args, false); !errors.Is(err, errExecuted) {
		t.Fatalf("query: err = %v, want the source's execution error", err)
	}
}

// TestServePageCacheNeedsDataDir: a page-cache budget without a store
// to apply it to is a usage error, not a silently ignored flag.
func TestServePageCacheNeedsDataDir(t *testing.T) {
	err := cmdServe(nil, []string{"-page-cache-mb", "8"})
	if err == nil || !strings.Contains(err.Error(), "requires -data-dir") {
		t.Fatalf("err = %v, want a -data-dir usage error", err)
	}
}
