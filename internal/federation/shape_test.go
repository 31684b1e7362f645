package federation

import (
	"net/http/httptest"
	"strings"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// misshapenSource answers every batch with one result too many, or
// with a nil result for its last tuple.
type misshapenSource struct {
	source.DataSource
	nilResult bool
}

func (s misshapenSource) ExecuteBatch(q source.SubQuery, paramSets []value.Row) ([]*source.Result, error) {
	out := make([]*source.Result, len(paramSets)+1)
	for i := range out {
		out[i] = &source.Result{Cols: []string{"name", "population"}}
	}
	if s.nilResult {
		out = out[:len(paramSets)]
		out[len(out)-1] = nil
	}
	return out, nil
}

// TestMisshapenBatchIsAnError: a source whose batch answer has the
// wrong number of results, or a nil one, is an error for every caller
// that reaches it (the executor, the probe cache and the /batch
// endpoint), never a panic or a silently short answer.
func TestMisshapenBatchIsAnError(t *testing.T) {
	_, db := servedRelSource(t)
	for _, shape := range []struct {
		name      string
		nilResult bool
		want      string
	}{
		{"wrong count", false, "results for"},
		{"nil result", true, "a nil result"},
	} {
		src := misshapenSource{source.NewRelSource("sql://insee", db), shape.nilResult}
		callers := map[string]func() error{
			"executor": func() error {
				in := core.NewInstance(nil)
				if err := in.AddSource(src); err != nil {
					t.Fatal(err)
				}
				_, err := in.Execute(core.MustParseCMQ(`
QUERY q(?n, ?p) FROM <sql://insee> OUT(?n, ?p) { SELECT name, population FROM departements }`))
				return err
			},
			"cached probe": func() error {
				_, err := source.NewCached(src, 8).Execute(batchQuery, codes("75")[0])
				return err
			},
			"cached batch": func() error {
				_, err := source.NewCached(src, 8).ExecuteBatch(batchQuery, codes("75", "92"))
				return err
			},
			"handler": func() error {
				srv := httptest.NewServer(Handler(src))
				defer srv.Close()
				c, err := Dial(srv.URL)
				if err != nil {
					t.Fatal(err)
				}
				_, err = c.ExecuteBatch(batchQuery, codes("75", "92"))
				return err
			},
		}
		for name, call := range callers {
			t.Run(shape.name+"/"+name, func(t *testing.T) {
				err := call()
				if err == nil || !strings.Contains(err.Error(), shape.want) {
					t.Errorf("err = %v, want one naming %q", err, shape.want)
				}
			})
		}
	}
}
