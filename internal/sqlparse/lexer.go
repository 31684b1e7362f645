// Package sqlparse implements the lexer, AST and recursive-descent
// parser for the SQL subset spoken by TATOOINE's relational sources:
// SELECT with joins, predicates, DISTINCT, ordering and limits. It is
// the query language that CMQ sub-queries against relational sources
// are written in, and it only reads: ParseSelect refuses any statement
// that is not a SELECT, writes and definitions included, since the
// mediator never writes a source; tables are loaded through relstore's
// Go API. GROUP BY, HAVING and the aggregate calls are refused too: the
// mediator aggregates in the CMQ head.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokString
	TokNumber
	TokOp    // = != <> < <= > >= + - * / ( ) , .
	TokParam // ? positional parameter
)

// Token is one lexical unit with its position.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep their case
	Pos  int    // byte offset in the input
}

var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"AND": true, "OR": true, "NOT": true, "LIKE": true, "IN": true,
	"IS": true, "NULL": true, "TRUE": true, "FALSE": true,
	"JOIN": true, "INNER": true, "LEFT": true, "OUTER": true, "ON": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"AS": true, "BETWEEN": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// SyntaxError reports a lexing or parsing failure with its byte offset.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sql: syntax error at offset %d: %s", e.Pos, e.Msg)
}

// Lex tokenizes a SQL statement.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				b.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &SyntaxError{start, "unterminated string literal"}
			}
			toks = append(toks, Token{TokString, b.String(), start})
		case c >= '0' && c <= '9':
			start := i
			for i < n && (input[i] >= '0' && input[i] <= '9' || input[i] == '.') {
				i++
			}
			// Scientific notation.
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < n && input[j] >= '0' && input[j] <= '9' {
					i = j
					for i < n && input[i] >= '0' && input[i] <= '9' {
						i++
					}
				}
			}
			toks = append(toks, Token{TokNumber, input[start:i], start})
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, Token{TokKeyword, upper, start})
			} else {
				toks = append(toks, Token{TokIdent, word, start})
			}
		case c == '"': // quoted identifier
			start := i
			i++
			j := strings.IndexByte(input[i:], '"')
			if j < 0 {
				return nil, &SyntaxError{start, "unterminated quoted identifier"}
			}
			toks = append(toks, Token{TokIdent, input[i : i+j], start})
			i += j + 1
		case c == '?':
			toks = append(toks, Token{TokParam, "?", i})
			i++
		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "!=", "<>", "<=", ">=":
				toks = append(toks, Token{TokOp, two, start})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '.', ';':
				toks = append(toks, Token{TokOp, string(c), start})
				i++
			default:
				return nil, &SyntaxError{start, fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, Token{TokEOF, "", n})
	return toks, nil
}
