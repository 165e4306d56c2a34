package sqlparse

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
)

// The reference lexer below is the byte-at-a-time lexer Tokenize
// replaced, kept verbatim (renamed) so FuzzLexerMatchesReference can
// hold the new one to it: on input whose non-ASCII bytes all lie inside
// quoted literals, every token, offset and error message must match.
// Outside that domain the two differ on purpose — the reference reads
// each byte as a Latin-1 rune, so "tà" lexed as the identifier "t\xc3"
// followed by a no-break space.

var refKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "PRIMARY": true, "KEY": true,
	"INT": true, "TEXT": true, "COUNT": true, "SUM": true,
	"ORDER": true, "BY": true, "LIMIT": true, "BETWEEN": true,
	"NOT": true, "NULL": true, "ASC": true, "DESC": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"INDEX": true, "ON": true, "EXPLAIN": true, "ANALYZE": true,
	"DROP": true, "TRANSACTION": true, "READ": true, "ONLY": true,
	"WRITE": true,
}

// refLexer splits SQL text into tokens.
type refLexer struct {
	src string
	pos int
}

// newRefLexer returns a lexer over src.
func newRefLexer(src string) *refLexer { return &refLexer{src: src} }

// Next returns the next token, or an error on malformed input.
func (l *refLexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'' || c == '"':
		return l.lexString(c)
	case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
		return l.lexNumber()
	case refIsIdentStart(c):
		return l.lexWord()
	}
	// Two-character operators first.
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		switch two {
		case "<=", ">=", "!=", "<>":
			l.pos += 2
			if two == "<>" {
				two = "!="
			}
			return Token{Kind: TokSymbol, Text: two, Pos: start}, nil
		}
	}
	switch c {
	case '(', ')', ',', '*', '=', '<', '>', ';', '.':
		l.pos++
		return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, l.pos)
}

func (l *refLexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func (l *refLexer) lexString(quote byte) (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			// Doubled quote is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				sb.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("sqlparse: unterminated string starting at offset %d", start)
}

func (l *refLexer) lexNumber() (Token, error) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.') {
		l.pos++
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *refLexer) lexWord() (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && refIsIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if refKeywords[upper] {
		return Token{Kind: TokKeyword, Text: upper, Pos: start}, nil
	}
	return Token{Kind: TokIdent, Text: word, Pos: start}, nil
}

func refIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func refIsIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// refTokenize lexes the whole input.
func refTokenize(src string) ([]Token, error) {
	lx := newRefLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// refDigest is the Digest that rendered the reference lexer's tokens.
func refDigest(src string) string {
	toks, err := refTokenize(src)
	if err != nil {
		return strings.Join(strings.Fields(src), " ")
	}
	var sb strings.Builder
	for i, t := range toks {
		if t.Kind == TokEOF {
			break
		}
		var text string
		switch t.Kind {
		case TokNumber, TokString:
			text = "?"
		case TokKeyword:
			text = t.Text // already uppercased by the lexer
		default:
			text = t.Text
		}
		if sb.Len() > 0 && needSpace(toks[i-1], t) {
			sb.WriteByte(' ')
		}
		sb.WriteString(text)
	}
	return sb.String()
}

// asciiOutsideLiterals reports whether every byte >= 0x80 of src lies
// inside a quoted literal, where both lexers keep bytes as they are. A
// quote byte outside a literal always opens one: no other token holds
// a quote.
func asciiOutsideLiterals(src string) bool {
	var quote byte
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c >= 0x80:
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func sqlText(stmt Statement) string {
	if stmt == nil {
		return "<nil>"
	}
	return stmt.SQL()
}

// workloadShapes are the statement shapes snapbench's workloads send,
// with values at their full length. parentAllocs is what Parse plus
// Digest allocated on each before the two shared one lex pass.
var workloadShapes = []struct {
	name, src    string
	parentAllocs float64
}{
	{"point SELECT", "SELECT v FROM w0 WHERE id = 1234", 25},
	{"range SELECT", "SELECT id, v FROM s1 WHERE id >= 12000 AND id <= 12499", 33},
	{"UPDATE", "UPDATE w2 SET v = 'upd-1-00000042-02-001234-xxxxxxxxxxxxxxxxxxxxxxxx' WHERE id = 1234", 35},
	{"INSERT", "INSERT INTO w3 (id, k, v) VALUES (5123, 3, 'upd-1-00000042-03-005123-xxxxxxxxxxxxxxxxxxxxxxxx')", 56},
	{"DELETE", "DELETE FROM w1 WHERE id = 5123", 20},
}

// FuzzLexerMatchesReference holds Tokenize to the reference lexer, token
// for token and error for error, wherever the two are meant to agree,
// and ParseDigest to Parse and Digest on every input.
func FuzzLexerMatchesReference(f *testing.F) {
	for _, w := range workloadShapes {
		f.Add(w.src)
	}
	for _, s := range []string{
		"SELECT COUNT(*) FROM s0 WHERE k = 3 AND id >= 100",
		"SELECT id, v FROM s0 WHERE id >= 5 ORDER BY v DESC LIMIT 10",
		"INSERT INTO w0 (id, k, v) VALUES (1, 1, 'a'), (2, 2, 'b')",
		"BEGIN", "COMMIT", "ROLLBACK", "SET TRANSACTION READ ONLY",
		"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
		"SELECT * FROM t WHERE name = 'O''Brien'",
		`SELECT * FROM t WHERE name = "say ""hi"""`,
		`SELECT * FROM t WHERE a = '''' AND b = """" AND c = 'it''s "x"'`,
		"SELECT * FROM t WHERE name = 'O''Brien",
		"SELECT * FROM t WHERE v > -5 AND w <> 1.5",
		"SELECT * FROM t WHERE a<=1 AND b>=2 AND c!=3 AND d<4 AND e>5",
		"sElEcT * fRoM t wHeRe a = 1",
		"SELECT by_, on1, b, o FROM _on ORDER By id",
		"SELECT abcdefghijklmnop FROM abcdefghijklmnopq",
		"SELECT * FROM TRANSACTIONXXXXX WHERE TRANSACTIONXXXXXX = 1",
		"SELECT * FROM information_schema.processlist;",
		"SELECT * FROM t WHERE junk # $ %",
		"SELECT * FROM t WHERE name = 'unterminated",
		"SELECT * FROM t WHERE name = 'caf\xc3\xa9' AND v = \"\xe9\"",
		"SELECT * FROM t\u00a0WHERE id = 1",
		"SELECT * FROM caf\xc3\xa9",
		"SELECT * FROM caf\xe9",
		"\t\n\v\f\r SELECT\x00",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, digest, err := ParseDigest(src)
		wantStmt, wantErr := Parse(src)
		if errText(err) != errText(wantErr) || sqlText(stmt) != sqlText(wantStmt) {
			t.Fatalf("ParseDigest(%q) = %s, %v; Parse = %s, %v", src, sqlText(stmt), err, sqlText(wantStmt), wantErr)
		}
		if want := Digest(src); digest != want {
			t.Fatalf("ParseDigest(%q) digest = %q, Digest = %q", src, digest, want)
		}
		if !asciiOutsideLiterals(src) {
			return
		}
		toks, err := Tokenize(src)
		ref, refErr := refTokenize(src)
		if errText(err) != errText(refErr) {
			t.Fatalf("Tokenize(%q) error %v, reference %v", src, err, refErr)
		}
		if len(toks) != len(ref) {
			t.Fatalf("Tokenize(%q):\n got %+v\nwant %+v", src, toks, ref)
		}
		for i := range toks {
			if toks[i] != ref[i] {
				t.Fatalf("Tokenize(%q) token %d = %+v, reference %+v", src, i, toks[i], ref[i])
			}
		}
		if want := refDigest(src); digest != want {
			t.Fatalf("Digest(%q) = %q, reference %q", src, digest, want)
		}
	})
}

// TestLexerUTF8Identifiers pins the rune rule: outside quoted literals
// a non-ASCII rune is classified whole, and a byte that starts no valid
// rune is an error. Reading bytes as Latin-1 runes, the reference lexer
// misread all four of the first cases.
func TestLexerUTF8Identifiers(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []string // token texts before EOF; nil when lexing must fail
	}{
		{"CREATE TABLE tà (id INT)", []string{"CREATE", "TABLE", "tà", "(", "id", "INT", ")"}},
		{"SELECT * FROM t\u00a0WHERE id = 1", []string{"SELECT", "*", "FROM", "t", "WHERE", "id", "=", "1"}},
		{"SELECT * FROM café", []string{"SELECT", "*", "FROM", "café"}},
		{"SELECT * FROM caf\xe9", nil},
		{"SELECT x1٣ FROM t", []string{"SELECT", "x1٣", "FROM", "t"}},
		{"SELECT * FROM t WHERE v = 'caf\xe9'", []string{"SELECT", "*", "FROM", "t", "WHERE", "v", "=", "caf\xe9"}},
		{"SELECT ¿ FROM t", nil},
	} {
		toks, err := Tokenize(c.src)
		if c.want == nil {
			if err == nil {
				t.Errorf("Tokenize(%q) = %+v, want an error", c.src, toks)
			}
			continue
		}
		if err != nil {
			t.Errorf("Tokenize(%q): %v", c.src, err)
			continue
		}
		var got []string
		for _, tok := range toks[:len(toks)-1] {
			got = append(got, tok.Text)
		}
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("Tokenize(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestParseDigestAllocationBudget is the front end's exact allocation
// gate over the workloads' statement shapes: Tokenize makes one
// allocation (the token slice), and ParseDigest at most a quarter of
// what Parse plus Digest made before they shared one lex pass.
func TestParseDigestAllocationBudget(t *testing.T) {
	for _, w := range workloadShapes {
		if got := testing.AllocsPerRun(100, func() { _, _ = Tokenize(w.src) }); got > 1 {
			t.Errorf("%s: Tokenize makes %.0f allocs, want <= 1", w.name, got)
		}
		got := testing.AllocsPerRun(100, func() { _, _, _ = ParseDigest(w.src) })
		if got*4 > w.parentAllocs {
			t.Errorf("%s: ParseDigest makes %.0f allocs, want <= %.2f (a quarter of %.0f)",
				w.name, got, w.parentAllocs/4, w.parentAllocs)
		}
	}
}

// raceEnabled is set under -race, where sync.Pool drops items at random
// and allocation counts stop being exact.
var raceEnabled bool

// TestParseDigestLexesIntoReusedBuffer: ParseDigest lexes into a pooled
// token buffer, so it allocates exactly what Parse does — the digest
// string takes the place of Parse's token slice — and a loaded INSERT
// costs no token slice sized from its text.
func TestParseDigestLexesIntoReusedBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	check := func(name, src string) {
		parse := testing.AllocsPerRun(100, func() { _, _ = Parse(src) })
		got := testing.AllocsPerRun(100, func() { _, _, _ = ParseDigest(src) })
		if got != parse {
			t.Errorf("%s: ParseDigest makes %.0f allocs, Parse %.0f", name, got, parse)
		}
	}
	check("load INSERT", loadInsert(50))
	for _, w := range workloadShapes {
		check(w.name, w.src)
	}
}

// loadInsert is a loader's INSERT of rows rows.
func loadInsert(rows int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO s0 (id, k, v) VALUES ")
	for id := 0; id < rows; id++ {
		if id > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, '%08x-row-00-%06d-0123456789abcdef01')", id, id%10, id*2654435761, id)
	}
	return sb.String()
}
