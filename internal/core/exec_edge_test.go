package core

import (
	"strings"
	"testing"

	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// failingSource errors on every execution; used for error-path tests.
type failingSource struct{ uri string }

func (f failingSource) URI() string                  { return f.uri }
func (f failingSource) Model() source.Model          { return source.RelationalModel }
func (f failingSource) Languages() []source.Language { return []source.Language{source.LangSQL} }
func (f failingSource) Execute(source.SubQuery, []value.Value) (*source.Result, error) {
	return nil, &sourceDown{}
}

type sourceDown struct{}

func (*sourceDown) Error() string { return "source down" }

func TestSourceErrorPropagates(t *testing.T) {
	in := NewInstance(nil)
	if err := in.AddSource(failingSource{"sql://down"}); err != nil {
		t.Fatal(err)
	}
	_, err := in.Query(`QUERY q(?v) FROM <sql://down> OUT(?v) { SELECT x FROM t }`)
	if err == nil || !strings.Contains(err.Error(), "source down") {
		t.Errorf("error propagation: %v", err)
	}
}

func TestSourceErrorPropagatesInParallelWave(t *testing.T) {
	in := NewInstance(nil)
	in.AddSource(failingSource{"sql://down"})
	db := relstore.NewDatabase("ok")
	db.Exec("CREATE TABLE t (x INT)")
	db.Exec("INSERT INTO t VALUES (1)")
	in.AddSource(source.NewRelSource("sql://ok", db))
	_, err := in.Query(`
QUERY q(?a, ?b)
FROM <sql://ok> OUT(?a) { SELECT x FROM t }
FROM <sql://down> OUT(?b) { SELECT x FROM t }
`)
	if err == nil || !strings.Contains(err.Error(), "source down") {
		t.Errorf("parallel wave error: %v", err)
	}
}

func TestBindJoinErrorInProbe(t *testing.T) {
	in := NewInstance(nil)
	in.AddSource(failingSource{"sql://down"})
	db := relstore.NewDatabase("ok")
	db.Exec("CREATE TABLE t (x INT)")
	db.Exec("INSERT INTO t VALUES (1), (2), (3)")
	in.AddSource(source.NewRelSource("sql://ok", db))
	_, err := in.Query(`
QUERY q(?a, ?b)
FROM <sql://ok> OUT(?a) { SELECT x FROM t }
FROM <sql://down> IN(?a) OUT(?b) { SELECT x FROM t WHERE x = ? }
`)
	if err == nil || !strings.Contains(err.Error(), "source down") {
		t.Errorf("bind join probe error: %v", err)
	}
}

func TestBindJoinSkipsNullParams(t *testing.T) {
	in := NewInstance(nil)
	db := relstore.NewDatabase("d")
	db.Exec("CREATE TABLE src (k TEXT)")
	db.Exec("INSERT INTO src (k) VALUES ('a')")
	db.Exec("INSERT INTO src VALUES (NULL)")
	db.Exec("CREATE TABLE tgt (k TEXT, v INT)")
	db.Exec("INSERT INTO tgt VALUES ('a', 1)")
	in.AddSource(source.NewRelSource("sql://d", db))
	res, err := in.Query(`
QUERY q(?k, ?v)
FROM <sql://d> OUT(?k) { SELECT k FROM src }
FROM <sql://d> IN(?k) OUT(?k, ?v) { SELECT k, v FROM tgt WHERE k = ? }
`)
	if err != nil {
		t.Fatal(err)
	}
	// The NULL outer row must not probe (and cannot join).
	if len(res.Rows) != 1 || res.Rows[0][1].Int() != 1 {
		t.Errorf("null param handling: %+v", res.Rows)
	}
	if res.Stats.SubQueries != 2 { // one scan + one probe (not two probes)
		t.Errorf("probe count: %+v", res.Stats)
	}
}

func TestEmptyOuterBindJoin(t *testing.T) {
	in := NewInstance(nil)
	db := relstore.NewDatabase("d")
	db.Exec("CREATE TABLE src (k TEXT)")
	db.Exec("CREATE TABLE tgt (k TEXT)")
	in.AddSource(source.NewRelSource("sql://d", db))
	res, err := in.Query(`
QUERY q(?k)
FROM <sql://d> OUT(?k) { SELECT k FROM src }
FROM <sql://d> IN(?k) OUT(?k) { SELECT k FROM tgt WHERE k = ? }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("empty outer: %+v", res.Rows)
	}
}

func TestColumnArityMismatch(t *testing.T) {
	in := NewInstance(nil)
	db := relstore.NewDatabase("d")
	db.Exec("CREATE TABLE t (a INT, b INT)")
	db.Exec("INSERT INTO t VALUES (1, 2)")
	in.AddSource(source.NewRelSource("sql://d", db))
	// Two columns returned for one OUT variable.
	_, err := in.Query(`QUERY q(?a) FROM <sql://d> OUT(?a) { SELECT a, b FROM t }`)
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Errorf("arity mismatch: %v", err)
	}
}

func TestQueryTextParseErrorSurfaces(t *testing.T) {
	in := NewInstance(nil)
	if _, err := in.Query("NOT A QUERY"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestInstanceOfNilGraph(t *testing.T) {
	in := NewInstance(nil)
	if in.Graph() == nil || in.Graph().Size() != 0 {
		t.Error("nil graph should become an empty graph")
	}
	// A graph atom over the empty graph yields no rows, not an error.
	res, err := in.Query(`QUERY q(?x) GRAPH { ?x a <http://e/C> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows: %+v", res.Rows)
	}
}
