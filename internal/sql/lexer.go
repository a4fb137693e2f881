// Package sql implements the SQL front end: a hand-written lexer, the
// abstract syntax tree, and a recursive-descent parser for the query and
// DML/DDL subset the engine supports:
//
//	SELECT [DISTINCT] list FROM t [JOIN t ON ...]* [WHERE ...]
//	       [GROUP BY ...] [ORDER BY ...] [LIMIT n]
//	INSERT INTO t VALUES (...), ... | INSERT INTO t SELECT ...
//	UPDATE t SET c=expr, ... [WHERE ...]
//	DELETE FROM t [WHERE ...]
//	CREATE TABLE t (col TYPE, ..., PRIMARY KEY (cols))
//	CREATE INDEX name ON t (cols) | DROP INDEX name
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TEOF TokenKind = iota
	TIdent
	TKeyword
	TInt
	TFloat
	TString
	TSymbol // ( ) , . ; * = < > <= >= <> + - /
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased, identifiers preserved
	Pos  int
}

func (t Token) String() string {
	switch t.Kind {
	case TEOF:
		return "<eof>"
	case TString:
		return "'" + t.Text + "'"
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "DROP": true, "TABLE": true,
	"INDEX": true, "ON": true, "PRIMARY": true, "KEY": true, "JOIN": true,
	"INNER": true, "GROUP": true, "BY": true, "ORDER": true, "ASC": true,
	"DESC": true, "LIMIT": true, "AS": true, "DISTINCT": true, "BETWEEN": true,
	"IN": true, "NULL": true, "INT": true, "FLOAT": true, "VARCHAR": true,
	"DATE": true, "BOOL": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "TRUE": true, "FALSE": true, "IS": true,
	"LIKE": true, "EXPLAIN": true, "EXISTS": true,
}

// Lex tokenizes the input. It returns an error with position information
// on any malformed token.
func Lex(input string) ([]Token, error) {
	// Sized for the whole statement up front (a token and its separator
	// rarely fit in under four bytes) instead of five or six doublings.
	toks := make([]Token, 0, len(input)/4+2)
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, Token{Kind: TKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TIdent, Text: word, Pos: start})
			}
		case c >= '0' && c <= '9':
			start := i
			isFloat := false
			for i < n && (input[i] >= '0' && input[i] <= '9') {
				i++
			}
			if i < n && input[i] == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9' {
				isFloat = true
				i++
				for i < n && (input[i] >= '0' && input[i] <= '9') {
					i++
				}
			}
			kind := TInt
			if isFloat {
				kind = TFloat
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at position %d", start)
			}
			toks = append(toks, Token{Kind: TString, Text: sb.String(), Pos: start})
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, Token{Kind: TSymbol, Text: input[i : i+2], Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TSymbol, Text: "<", Pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TSymbol, Text: ">=", Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TSymbol, Text: ">", Pos: i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TSymbol, Text: "<>", Pos: i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected character %q at position %d", c, i)
			}
		case strings.ContainsRune("(),.;*=+-/", rune(c)):
			toks = append(toks, Token{Kind: TSymbol, Text: string(c), Pos: i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at position %d", c, i)
		}
	}
	toks = append(toks, Token{Kind: TEOF, Pos: n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
