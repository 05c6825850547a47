// Package sql implements softdb's SQL front end: a hand-written lexer and
// recursive-descent parser covering the dialect the paper's examples use —
// DDL with constraint enforcement modes, summary tables, views, DML, and
// SELECT with joins, grouping, ordering, and UNION ALL.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

const (
	// TokEOF marks end of input.
	TokEOF TokenKind = iota
	// TokIdent is an identifier or unreserved keyword.
	TokIdent
	// TokNumber is an integer or decimal literal.
	TokNumber
	// TokString is a single-quoted string literal (quotes stripped,
	// doubled quotes unescaped).
	TokString
	// TokOp is an operator or punctuation mark.
	TokOp
)

// Token is one lexeme with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// IsKeyword reports whether the token is the given keyword,
// case-insensitively.
func (t Token) IsKeyword(kw string) bool {
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// Upper returns the token text upper-cased, the form keyword dispatch uses.
func (t Token) Upper() string { return strings.ToUpper(t.Text) }

// Lex tokenizes the input. It returns an error for unterminated strings or
// unexpected characters.
func Lex(input string) ([]Token, error) {
	var toks []Token
	sc := scanner{input: input}
	for {
		t, err := sc.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// scanner produces the token stream one token at a time; Lex collects it
// for the parser, Fingerprint consumes it directly.
type scanner struct {
	input string
	i     int
}

// next returns the next token, TokEOF at the end of the input.
func (sc *scanner) next() (Token, error) {
	input, n := sc.input, len(sc.input)
	for sc.i < n {
		i := sc.i
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			sc.i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// Line comment.
			for sc.i < n && input[sc.i] != '\n' {
				sc.i++
			}
		case isIdentStart(rune(c)):
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			start := sc.i
			sc.i = i
			return Token{Kind: TokIdent, Text: input[start:i], Pos: start}, nil
		case c >= '0' && c <= '9':
			start := i
			seenDot := false
			for i < n {
				ch := input[i]
				if ch >= '0' && ch <= '9' {
					i++
					continue
				}
				if ch == '.' && !seenDot {
					seenDot = true
					i++
					continue
				}
				if (ch == 'e' || ch == 'E') && i+1 < n && (isDigit(input[i+1]) || ((input[i+1] == '+' || input[i+1] == '-') && i+2 < n && isDigit(input[i+2]))) {
					i += 2
					for i < n && isDigit(input[i]) {
						i++
					}
					break
				}
				break
			}
			sc.i = i
			return Token{Kind: TokNumber, Text: input[start:i], Pos: start}, nil
		case c == '\'':
			start := i
			i++
			body := i
			escaped := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						escaped = true
						i += 2
						continue
					}
					text := input[body:i]
					if escaped {
						text = strings.ReplaceAll(text, "''", "'")
					}
					sc.i = i + 1
					return Token{Kind: TokString, Text: text, Pos: start}, nil
				}
				i++
			}
			return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
		default:
			start := i
			var op string
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=":
				op = two
				sc.i += 2
			default:
				switch c {
				case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '.', ';':
					op = input[i : i+1]
					sc.i++
				default:
					return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
				}
			}
			if op == "!=" {
				op = "<>"
			}
			return Token{Kind: TokOp, Text: op, Pos: start}, nil
		}
	}
	return Token{Kind: TokEOF, Pos: n}, nil
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }

func isIdentPart(r rune) bool { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

func isDigit(b byte) bool { return b >= '0' && b <= '9' }
