// Package sqlparse implements the SQL dialect understood by the snapdb
// engine: CREATE TABLE, INSERT, SELECT, UPDATE, and DELETE with simple
// conjunctive WHERE clauses. It also implements the statement-digest
// canonicalization used by MySQL's performance_schema, which strips
// literal arguments while preserving the select-from-where structure —
// the property §4 of the paper relies on.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokSymbol // punctuation and operators: ( ) , * = < > <= >= != ;
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "ident"
	case TokKeyword:
		return "keyword"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokSymbol:
		return "symbol"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Token is a single lexical token. Text holds the raw text; for TokString
// it is the unquoted content, and for TokKeyword the uppercased word.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input
}

// keywords maps each keyword to its canonical (upper-case) text, so a
// lookup hands back a string the lexer never has to allocate.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range strings.Fields(`
		SELECT FROM WHERE AND INSERT INTO VALUES UPDATE SET DELETE
		CREATE TABLE PRIMARY KEY INT TEXT COUNT SUM ORDER BY LIMIT BETWEEN
		NOT NULL ASC DESC BEGIN COMMIT ROLLBACK INDEX ON EXPLAIN ANALYZE
		DROP TRANSACTION READ ONLY WRITE`) {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen bounds the words keyword upper-cases; no keyword is
// longer, so a longer word is an identifier without a lookup.
const maxKeywordLen = 16

// Byte classes of the ASCII range. A byte at or above utf8.RuneSelf has
// none: the lexer decodes the rune it starts and classifies that.
const (
	classSpace uint8 = 1 << iota
	classDigit
	classIdentStart
	classIdentPart
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		r := rune(c)
		if unicode.IsSpace(r) {
			t[c] |= classSpace
		}
		if unicode.IsDigit(r) {
			t[c] |= classDigit | classIdentPart
		}
		if r == '_' || unicode.IsLetter(r) {
			t[c] |= classIdentStart | classIdentPart
		}
	}
	return t
}()

// symbolText is the token text of each one-byte symbol.
var symbolText = [256]string{
	'(': "(", ')': ")", ',': ",", '*': "*", '=': "=",
	'<': "<", '>': ">", ';': ";", '.': ".",
}

// Lexer splits SQL text into tokens. Identifiers and whitespace are
// UTF-8: a non-ASCII rune is a letter, digit or space as the unicode
// package classifies the whole rune, and a byte that starts no valid
// rune outside a quoted literal is an error. Quoted literals keep their
// bytes as they are.
type Lexer struct {
	src string
	pos int
}

// Next returns the next token, or an error on malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[start]
	if c >= utf8.RuneSelf {
		r, size := utf8.DecodeRuneInString(l.src[start:])
		if r == utf8.RuneError && size == 1 {
			return Token{}, fmt.Errorf("sqlparse: invalid UTF-8 byte %#x at offset %d", c, start)
		}
		if unicode.IsLetter(r) {
			return l.lexWord(), nil
		}
		return Token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", r, start)
	}
	switch {
	case c == '\'' || c == '"':
		return l.lexString(c)
	case byteClass[c]&classDigit != 0 ||
		(c == '-' && start+1 < len(l.src) && byteClass[l.src[start+1]]&classDigit != 0):
		return l.lexNumber(), nil
	case byteClass[c]&classIdentStart != 0:
		return l.lexWord(), nil
	}
	// Two-character operators first.
	if start+1 < len(l.src) {
		switch two := l.src[start : start+2]; two {
		case "<=", ">=", "!=":
			l.pos += 2
			return Token{Kind: TokSymbol, Text: two, Pos: start}, nil
		case "<>":
			l.pos += 2
			return Token{Kind: TokSymbol, Text: "!=", Pos: start}, nil
		}
	}
	if sym := symbolText[c]; sym != "" {
		l.pos++
		return Token{Kind: TokSymbol, Text: sym, Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, start)
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c < utf8.RuneSelf {
			if byteClass[c]&classSpace == 0 {
				return
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		l.pos += size
	}
}

// lexString returns the literal's content as a substring of the input;
// only a literal holding a doubled (escaped) quote is copied.
func (l *Lexer) lexString(quote byte) (Token, error) {
	start := l.pos
	rest := l.src[start+1:]
	var sb strings.Builder
	for {
		i := strings.IndexByte(rest, quote)
		if i < 0 {
			return Token{}, fmt.Errorf("sqlparse: unterminated string starting at offset %d", start)
		}
		if i+1 < len(rest) && rest[i+1] == quote {
			// Doubled quote is an escaped quote.
			sb.WriteString(rest[:i+1])
			rest = rest[i+2:]
			continue
		}
		l.pos = len(l.src) - len(rest) + i + 1
		text := rest[:i]
		if sb.Len() > 0 {
			sb.WriteString(text)
			text = sb.String()
		}
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	}
}

func (l *Lexer) lexNumber() Token {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && (byteClass[l.src[l.pos]]&classDigit != 0 || l.src[l.pos] == '.') {
		l.pos++
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}
}

func (l *Lexer) lexWord() Token {
	start := l.pos
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c < utf8.RuneSelf {
			if byteClass[c]&classIdentPart == 0 {
				break
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		l.pos += size
	}
	word := l.src[start:l.pos]
	if kw := keyword(word); kw != "" {
		return Token{Kind: TokKeyword, Text: kw, Pos: start}
	}
	return Token{Kind: TokIdent, Text: word, Pos: start}
}

// keyword returns the canonical text of the keyword word spells in any
// ASCII letter case, or "" for an identifier. The word is upper-cased
// into a stack buffer, so the lookup allocates nothing; a word that is
// not all ASCII letters, or shorter than any keyword, skips the lookup.
func keyword(word string) string {
	var buf [maxKeywordLen]byte
	if len(word) < 2 || len(word) > len(buf) {
		return ""
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if c < 'A' || c > 'Z' {
			return ""
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(word)])]
}

// Tokenize lexes the whole input. The token slice is sized from the
// input length so that a typical statement lexes in one allocation.
func Tokenize(src string) ([]Token, error) {
	toks, err := lexInto(make([]Token, 0, len(src)/3+4), src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lexInto appends src's tokens, up to and including TokEOF, to dst.
func lexInto(dst []Token, src string) ([]Token, error) {
	lx := Lexer{src: src}
	for {
		t, err := lx.Next()
		if err != nil {
			return dst, err
		}
		dst = append(dst, t)
		if t.Kind == TokEOF {
			return dst, nil
		}
	}
}
