package xmlstore

import (
	"strings"
	"testing"
)

const speechXML = `<speeches>
  <speech speaker="François Hollande" date="2016-02-27" venue="Salon de l'Agriculture">
    <title>Discours sur l'agriculture</title>
    <topic>agriculture</topic>
    <body>Je suis venu soutenir les agriculteurs.</body>
  </speech>
  <speech speaker="Jean Dupont" date="2015-11-20" venue="Assemblée nationale">
    <title>Sur l'état d'urgence</title>
    <topic>etat-durgence</topic>
    <body>Le parlement doit voter la prolongation.</body>
  </speech>
</speeches>`

func store(t *testing.T) *Store {
	t.Helper()
	s := NewStore("speeches")
	if err := s.Add("d1", []byte(speechXML)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseTree(t *testing.T) {
	root, err := Parse([]byte(speechXML))
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "speeches" || len(root.Children) != 2 {
		t.Fatalf("root: %s children=%d", root.Name, len(root.Children))
	}
	sp := root.Children[0]
	if sp.Attr("speaker") != "François Hollande" {
		t.Errorf("attr: %q", sp.Attr("speaker"))
	}
	if sp.ChildText("topic") != "agriculture" {
		t.Errorf("child text: %q", sp.ChildText("topic"))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`<a><b></a>`,
		`<a></a><b></b>`,
		`<a>`,
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestPaths(t *testing.T) {
	root, _ := Parse([]byte(speechXML))
	paths := root.Paths()
	want := []string{
		"speeches/speech/@date", "speeches/speech/@speaker", "speeches/speech/@venue",
		"speeches/speech/body", "speeches/speech/title", "speeches/speech/topic",
	}
	got := strings.Join(paths, ",")
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("missing path %q in %v", w, paths)
		}
	}
}

func TestXPathAbsolute(t *testing.T) {
	root, _ := Parse([]byte(speechXML))
	p, err := ParsePath("/speeches/speech")
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := p.Eval(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Errorf("speeches: %d", len(nodes))
	}
}

func TestXPathPredicates(t *testing.T) {
	root, _ := Parse([]byte(speechXML))
	cases := []struct {
		expr string
		want int
	}{
		{"/speeches/speech[@speaker='Jean Dupont']", 1},
		{"/speeches/speech[topic='agriculture']", 1},
		{"/speeches/speech[@speaker='Nobody']", 0},
		{"/speeches/*", 2},
		{"//speech", 2},
		{"//title", 2},
		{"/speeches/speech[@speaker='Jean Dupont'][topic='etat-durgence']", 1},
		{"/speeches/speech[@speaker='Jean Dupont'][topic='agriculture']", 0},
	}
	for _, c := range cases {
		p, err := ParsePath(c.expr)
		if err != nil {
			t.Errorf("parse %q: %v", c.expr, err)
			continue
		}
		nodes, err := p.Eval(root, nil)
		if err != nil {
			t.Errorf("eval %q: %v", c.expr, err)
			continue
		}
		if len(nodes) != c.want {
			t.Errorf("%q: %d nodes, want %d", c.expr, len(nodes), c.want)
		}
	}
}

// TestXPathSelectors: a path selects elements; a trailing attribute or
// text() selector is refused, since RETURN selects those per node.
func TestXPathSelectors(t *testing.T) {
	for _, expr := range []string{"/speeches/speech/@date", "/speeches/speech/title/text()"} {
		_, err := ParsePath(expr)
		if err == nil || !strings.Contains(err.Error(), "must select elements") {
			t.Errorf("%s: err %v, want the must-select-elements refusal", expr, err)
		}
	}
}

func TestXPathParams(t *testing.T) {
	root, _ := Parse([]byte(speechXML))
	p, err := ParsePath("/speeches/speech[@speaker=?]")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams != 1 {
		t.Fatalf("params: %d", p.NumParams)
	}
	nodes, err := p.Eval(root, []string{"François Hollande"})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 {
		t.Errorf("param eval: %d", len(nodes))
	}
	if _, err := p.Eval(root, nil); err == nil {
		t.Error("missing param accepted")
	}
}

func TestXPathParseErrors(t *testing.T) {
	cases := []string{
		"",
		"speech",
		"/speeches/speech[",
		"/speeches/speech[@a]",
		"/speeches/speech[@a=unquoted]",
		"/@attr",
		"//",
	}
	for _, c := range cases {
		if _, err := ParsePath(c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestTextQueryExecute(t *testing.T) {
	s := store(t)
	q, err := ParseTextQuery("XPATH /speeches/speech[@speaker=?] RETURN _id, @date, title, text()")
	if err != nil {
		t.Fatal(err)
	}
	cols, rows, err := q.Execute(s, []string{"Jean Dupont"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 4 || len(rows) != 1 {
		t.Fatalf("result: %v %v", cols, rows)
	}
	if rows[0][0] != "d1" || rows[0][1] != "2015-11-20" {
		t.Errorf("row: %v", rows[0])
	}
	if !strings.Contains(rows[0][2], "urgence") {
		t.Errorf("title: %q", rows[0][2])
	}
}

func TestTextQueryErrors(t *testing.T) {
	cases := []string{
		"SELECT * FROM t",
		"XPATH /a/b",
		"XPATH /a/b/@x RETURN _id",
		"XPATH /a/b RETURN ",
	}
	for _, c := range cases {
		if _, err := ParseTextQuery(c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestStoreDuplicateAndGet(t *testing.T) {
	s := store(t)
	if err := s.Add("d1", []byte("<x/>")); err == nil {
		t.Error("duplicate ID accepted")
	}
	var ids []string
	s.Each(func(d *Document) bool { ids = append(ids, d.ID); return true })
	if len(ids) != 1 || ids[0] != "d1" {
		t.Errorf("documents: %v", ids)
	}
	if s.Count() != 1 {
		t.Errorf("count: %d", s.Count())
	}
}
