package fulltext

import (
	"fmt"
	"strconv"
	"strings"

	"tatooine/internal/value"
)

// This file implements the textual query syntax used when full-text
// sub-queries appear inside Conjunctive Mixed Queries, playing the role
// of Solr's query strings in the paper:
//
//	SEARCH tweets
//	WHERE entities.hashtags = ? AND text CONTAINS 'solidarité'
//	      AND retweet_count >= 100
//	RETURN _id, user.screen_name, text
//	ORDER BY retweet_count DESC LIMIT 50
//
// Conditions, all conjoined with AND, each against a schema field (an
// unknown field is an error):
//
//   - '=' on a keyword field matches the value case- and accent-
//     insensitively; on a numeric or time field it is the point range
//     [v, v]; on a text field it matches nothing (use CONTAINS).
//   - CONTAINS matches documents holding every analyzed term, PHRASE
//     holding them consecutively in order; both score BM25.
//   - >=, <= and BETWEEN..AND (inclusive) range over numeric and time
//     fields. A bound that is neither a number nor a time (or a string
//     parsing as one) matches no document.
//
// Keyword and range conditions score 1; a hit's score is the sum over
// the conditions. No WHERE matches every document with score 0.
// ORDER BY sorts by a numeric or time field's first numeric value, or
// by a keyword or text field's first value folded as '=' folds it;
// documents without one sort lowest, ties keep index order, and an
// unknown field is an error. Without ORDER BY, hits come by descending
// score, then ID. '?' marks a positional parameter bound at execution
// time (bind joins). RETURN paths may include the pseudo fields _id
// and _score.

// TextQuery is a parsed SEARCH statement.
type TextQuery struct {
	Index   string
	Conds   []Cond
	Returns []string
	OrderBy string
	Desc    bool
	Limit   int // 0 = unlimited
	// NumParams is the number of '?' placeholders, in cond order.
	NumParams int

	returnSteps [][]string // each RETURN path split at its dots
}

// CondOp enumerates condition operators.
type CondOp uint8

const (
	CondEq CondOp = iota
	CondContains
	CondPhrase
	CondGe
	CondLe
	CondBetween
)

// Cond is one WHERE conjunct. A Param index >= 0 marks the value as the
// n-th '?' parameter; Val holds the literal otherwise. Between uses
// Val/Val2 (or Param/Param2).
type Cond struct {
	Field  string
	Op     CondOp
	Val    value.Value
	Val2   value.Value
	Param  int // -1 when literal
	Param2 int
}

// ParseTextQuery parses the SEARCH syntax.
func ParseTextQuery(input string) (*TextQuery, error) {
	toks, err := lexQuery(input)
	if err != nil {
		return nil, err
	}
	p := &qparser{toks: toks}
	return p.parse()
}

type qtoken struct {
	kind string // "word", "string", "number", "op", "param", "eof"
	text string
}

func lexQuery(input string) ([]qtoken, error) {
	var out []qtoken
	i, n := 0, len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var b strings.Builder
			closed := false
			for j < n {
				if input[j] == '\'' {
					if j+1 < n && input[j+1] == '\'' {
						b.WriteByte('\'')
						j += 2
						continue
					}
					closed = true
					j++
					break
				}
				b.WriteByte(input[j])
				j++
			}
			if !closed {
				return nil, fmt.Errorf("fulltext: unterminated string in query")
			}
			out = append(out, qtoken{"string", b.String()})
			i = j
		case c == '?':
			out = append(out, qtoken{"param", "?"})
			i++
		case c == ',':
			out = append(out, qtoken{"op", ","})
			i++
		case c == '=':
			out = append(out, qtoken{"op", "="})
			i++
		case c == '>' && i+1 < n && input[i+1] == '=':
			out = append(out, qtoken{"op", ">="})
			i += 2
		case c == '<' && i+1 < n && input[i+1] == '=':
			out = append(out, qtoken{"op", "<="})
			i += 2
		case c >= '0' && c <= '9' || c == '-':
			j := i + 1
			for j < n && (input[j] >= '0' && input[j] <= '9' || input[j] == '.' ||
				input[j] == ':' || input[j] == 'T' || input[j] == 'Z' || input[j] == '-' || input[j] == '+') {
				j++
			}
			out = append(out, qtoken{"number", input[i:j]})
			i = j
		default:
			j := i
			for j < n && !strings.ContainsRune(" \t\n\r'?,=<>", rune(input[j])) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("fulltext: unexpected character %q in query", c)
			}
			out = append(out, qtoken{"word", input[i:j]})
			i = j
		}
	}
	out = append(out, qtoken{"eof", ""})
	return out, nil
}

type qparser struct {
	toks   []qtoken
	pos    int
	params int
}

func (p *qparser) cur() qtoken { return p.toks[p.pos] }

func (p *qparser) acceptWord(w string) bool {
	t := p.cur()
	if t.kind == "word" && strings.EqualFold(t.text, w) {
		p.pos++
		return true
	}
	return false
}

func (p *qparser) expectWordAny() (string, error) {
	t := p.cur()
	if t.kind != "word" {
		return "", fmt.Errorf("fulltext: expected word, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *qparser) parse() (*TextQuery, error) {
	if !p.acceptWord("SEARCH") {
		return nil, fmt.Errorf("fulltext: query must start with SEARCH")
	}
	idx, err := p.expectWordAny()
	if err != nil {
		return nil, err
	}
	q := &TextQuery{Index: idx}
	if p.acceptWord("WHERE") {
		for {
			cond, err := p.parseCond(q)
			if err != nil {
				return nil, err
			}
			q.Conds = append(q.Conds, cond)
			if !p.acceptWord("AND") {
				break
			}
		}
	}
	if !p.acceptWord("RETURN") {
		return nil, fmt.Errorf("fulltext: missing RETURN clause")
	}
	for {
		f, err := p.expectWordAny()
		if err != nil {
			return nil, err
		}
		q.Returns = append(q.Returns, f)
		q.returnSteps = append(q.returnSteps, strings.Split(f, "."))
		if p.cur().kind == "op" && p.cur().text == "," {
			p.pos++
			continue
		}
		break
	}
	if p.acceptWord("ORDER") {
		if !p.acceptWord("BY") {
			return nil, fmt.Errorf("fulltext: expected BY after ORDER")
		}
		f, err := p.expectWordAny()
		if err != nil {
			return nil, err
		}
		q.OrderBy = f
		if p.acceptWord("DESC") {
			q.Desc = true
		} else {
			p.acceptWord("ASC")
		}
	}
	if p.acceptWord("LIMIT") {
		t := p.cur()
		if t.kind != "number" {
			return nil, fmt.Errorf("fulltext: LIMIT expects a number")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("fulltext: bad LIMIT %q", t.text)
		}
		q.Limit = n
		p.pos++
	}
	if p.cur().kind != "eof" {
		return nil, fmt.Errorf("fulltext: unexpected trailing %q", p.cur().text)
	}
	q.NumParams = p.params
	return q, nil
}

func (p *qparser) parseValueOrParam() (value.Value, int, error) {
	t := p.cur()
	switch t.kind {
	case "param":
		p.pos++
		idx := p.params
		p.params++
		return value.Value{}, idx, nil
	case "string":
		p.pos++
		return value.NewString(t.text), -1, nil
	case "number":
		p.pos++
		return value.Parse(t.text, false), -1, nil
	default:
		return value.Value{}, -1, fmt.Errorf("fulltext: expected value or '?', got %q", t.text)
	}
}

func (p *qparser) parseCond(q *TextQuery) (Cond, error) {
	field, err := p.expectWordAny()
	if err != nil {
		return Cond{}, err
	}
	cond := Cond{Field: field, Param: -1, Param2: -1}
	t := p.cur()
	switch {
	case t.kind == "op" && t.text == "=":
		p.pos++
		cond.Op = CondEq
	case t.kind == "op" && t.text == ">=":
		p.pos++
		cond.Op = CondGe
	case t.kind == "op" && t.text == "<=":
		p.pos++
		cond.Op = CondLe
	case t.kind == "word" && strings.EqualFold(t.text, "CONTAINS"):
		p.pos++
		cond.Op = CondContains
	case t.kind == "word" && strings.EqualFold(t.text, "PHRASE"):
		p.pos++
		cond.Op = CondPhrase
	case t.kind == "word" && strings.EqualFold(t.text, "BETWEEN"):
		p.pos++
		cond.Op = CondBetween
	default:
		return Cond{}, fmt.Errorf("fulltext: expected operator after field %q, got %q", field, t.text)
	}
	v, param, err := p.parseValueOrParam()
	if err != nil {
		return Cond{}, err
	}
	cond.Val, cond.Param = v, param
	if cond.Op == CondBetween {
		if !p.acceptWord("AND") {
			return Cond{}, fmt.Errorf("fulltext: BETWEEN expects AND")
		}
		v2, param2, err := p.parseValueOrParam()
		if err != nil {
			return Cond{}, err
		}
		cond.Val2, cond.Param2 = v2, param2
	}
	return cond, nil
}
