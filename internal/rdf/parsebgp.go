package rdf

import (
	"bufio"
	"strings"
)

// ParseBGP parses the textual form of a basic graph pattern produced by
// BGP.String and used throughout TATOOINE's query syntax:
//
//	q(?x, ?id) :- ?x <http://t.example/position> <http://t.example/headOfState> .
//	              ?x <http://t.example/twitterAccount> ?id
//
// The head is optional: a bare pattern list ("?x <p> ?y . ?y <q> ?z")
// projects all variables. Prefixed names (rdf:type, foaf:name, plus any
// extra prefixes given) and the 'a' keyword are accepted in patterns.
func ParseBGP(input string, prefixes map[string]string) (BGP, error) {
	var q BGP
	body := input
	if i := strings.Index(input, ":-"); i >= 0 {
		headStr := strings.TrimSpace(input[:i])
		body = input[i+2:]
		head, err := parseHead(headStr)
		if err != nil {
			return q, err
		}
		q.Head = head
	}
	main, optionalBodies, err := extractOptionals(body)
	if err != nil {
		return q, err
	}
	pats, filters, err := parsePatterns(main, prefixes)
	if err != nil {
		return q, err
	}
	q.Patterns = pats
	q.Filters = filters
	for _, ob := range optionalBodies {
		opats, ofilters, err := parsePatterns(ob, prefixes)
		if err != nil {
			return q, err
		}
		if len(ofilters) > 0 {
			return q, &ParseError{Msg: "FILTER inside OPTIONAL is not supported"}
		}
		if len(opats) == 0 {
			return q, &ParseError{Msg: "empty OPTIONAL group"}
		}
		q.Optionals = append(q.Optionals, opats)
	}
	return q, q.Validate()
}

func parseHead(s string) ([]string, error) {
	open := strings.IndexByte(s, '(')
	close := strings.LastIndexByte(s, ')')
	if open < 0 || close < open {
		return nil, &ParseError{Msg: "malformed query head (expected q(?v, ...))"}
	}
	inner := s[open+1 : close]
	if strings.TrimSpace(inner) == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(inner, ",") {
		v := strings.TrimSpace(part)
		v = strings.TrimPrefix(v, "?")
		if v == "" {
			return nil, &ParseError{Msg: "empty variable in query head"}
		}
		out = append(out, v)
	}
	return out, nil
}

// extractOptionals splits "p1 . OPTIONAL { p2 . p3 } . p4" into the
// main pattern text and the optional group bodies. Braces inside
// string literals are respected.
func extractOptionals(body string) (string, []string, error) {
	var main strings.Builder
	var optionals []string
	i := 0
	n := len(body)
	for i < n {
		// String literal: copy verbatim.
		if body[i] == '"' {
			j := i + 1
			for j < n && body[j] != '"' {
				if body[j] == '\\' {
					j++
				}
				j++
			}
			if j >= n {
				return "", nil, &ParseError{Msg: "unterminated literal"}
			}
			main.WriteString(body[i : j+1])
			i = j + 1
			continue
		}
		// OPTIONAL keyword (case-insensitive, word-delimited)?
		if isOptionalAt(body, i) {
			j := i + len("OPTIONAL")
			for j < n && (body[j] == ' ' || body[j] == '\t' || body[j] == '\n' || body[j] == '\r') {
				j++
			}
			if j >= n || body[j] != '{' {
				return "", nil, &ParseError{Msg: "OPTIONAL expects '{'"}
			}
			depth := 1
			k := j + 1
			for k < n && depth > 0 {
				switch body[k] {
				case '{':
					depth++
				case '}':
					depth--
				case '"':
					k++
					for k < n && body[k] != '"' {
						if body[k] == '\\' {
							k++
						}
						k++
					}
				}
				k++
			}
			if depth != 0 {
				return "", nil, &ParseError{Msg: "unterminated OPTIONAL group"}
			}
			optionals = append(optionals, strings.TrimSpace(body[j+1:k-1]))
			// Swallow one adjacent '.' separator so the main pattern
			// list stays well-formed.
			rest := strings.TrimLeft(body[k:], " \t\n\r")
			trimmedMain := strings.TrimRight(main.String(), " \t\n\r")
			switch {
			case strings.HasSuffix(trimmedMain, "."):
				main.Reset()
				main.WriteString(strings.TrimSuffix(trimmedMain, "."))
				main.WriteString(" ")
				i = n - len(rest)
			case strings.HasPrefix(rest, "."):
				i = n - len(rest) + 1
			default:
				i = n - len(rest)
			}
			continue
		}
		main.WriteByte(body[i])
		i++
	}
	return main.String(), optionals, nil
}

func isOptionalAt(body string, i int) bool {
	const kw = "OPTIONAL"
	if i+len(kw) > len(body) {
		return false
	}
	if !strings.EqualFold(body[i:i+len(kw)], kw) {
		return false
	}
	// Word boundaries: previous and next characters must not be
	// name-like.
	if i > 0 {
		prev := body[i-1]
		if prev != ' ' && prev != '\t' && prev != '\n' && prev != '\r' && prev != '.' {
			return false
		}
	}
	if i+len(kw) < len(body) {
		next := body[i+len(kw)]
		if next != ' ' && next != '\t' && next != '\n' && next != '\r' && next != '{' {
			return false
		}
	}
	return true
}

// parsePatterns tokenizes a '.'-separated conjunction of triple
// patterns and FILTER(...) constraints.
func parsePatterns(body string, prefixes map[string]string) ([]TriplePattern, []Filter, error) {
	p := &parser{
		sc:       bufio.NewReader(strings.NewReader(body)),
		line:     1,
		prefixes: make(map[string]string),
	}
	for k, v := range CommonPrefixes {
		p.prefixes[k] = v
	}
	for k, v := range prefixes {
		p.prefixes[k] = v
	}
	var pats []TriplePattern
	var filters []Filter
	for {
		if err := p.skipWS(); err != nil {
			return pats, filters, nil // end of input
		}
		if p.peekKeyword("FILTER") {
			f, err := p.parseFilter()
			if err != nil {
				return nil, nil, err
			}
			filters = append(filters, f)
		} else if p.peekKeyword("OPTIONAL") {
			return nil, nil, p.errf("OPTIONAL blocks must be handled by ParseBGP (internal error)")
		} else {
			var pt [3]PatternTerm
			for i := 0; i < 3; i++ {
				if err := p.skipWS(); err != nil {
					return nil, nil, p.errf("incomplete triple pattern")
				}
				term, err := p.parsePatternTerm()
				if err != nil {
					return nil, nil, err
				}
				pt[i] = term
			}
			pats = append(pats, TriplePattern{pt[0], pt[1], pt[2]})
		}
		if err := p.skipWS(); err != nil {
			return pats, filters, nil
		}
		r, _ := p.peek()
		if r == '.' {
			p.read()
			continue
		}
		return nil, nil, p.errf("expected '.' between patterns, got %q", r)
	}
}

// peekKeyword checks (case-insensitively) whether the next word is kw,
// consuming it when it matches.
func (p *parser) peekKeyword(kw string) bool {
	// Read up to len(kw) runes, pushing back on mismatch.
	var read []rune
	match := true
	for i := 0; i < len(kw); i++ {
		r, err := p.read()
		if err != nil {
			match = false
			break
		}
		read = append(read, r)
		lower := r
		if lower >= 'A' && lower <= 'Z' {
			lower += 'a' - 'A'
		}
		want := rune(kw[i])
		if want >= 'A' && want <= 'Z' {
			want += 'a' - 'A'
		}
		if lower != want {
			match = false
			break
		}
	}
	if match {
		// The keyword must be delimited (next rune not word-like).
		if r, err := p.peek(); err == nil {
			if r != '(' && r != ' ' && r != '\t' && r != '\n' && r != '\r' {
				match = false
			}
		}
	}
	if !match {
		for i := len(read) - 1; i >= 0; i-- {
			p.unread(read[i])
		}
	}
	return match
}

// parsePatternTerm parses a term or a ?variable.
func (p *parser) parsePatternTerm() (PatternTerm, error) {
	r, err := p.peek()
	if err != nil {
		return PatternTerm{}, p.errf("expected term")
	}
	if r == '?' {
		p.read()
		name, err := p.readBareWord()
		if err != nil || name == "" {
			return PatternTerm{}, p.errf("malformed variable")
		}
		return Variable(name), nil
	}
	t, err := p.parseTerm()
	if err != nil {
		return PatternTerm{}, err
	}
	return Constant(t), nil
}
