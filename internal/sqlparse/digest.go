package sqlparse

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
)

// Digest canonicalizes a SQL statement the way MySQL's
// performance_schema does: every literal argument is replaced by '?',
// keywords are uppercased, identifiers keep their case, and whitespace
// collapses to single spaces. The select-from-where *structure* and the
// attributes it mentions are preserved, so
//
//	SELECT * FROM CUSTOMERS WHERE STATE='IN'
//	SELECT * FROM CUSTOMERS WHERE STATE='AZ'
//
// share one digest, while adding a second constraint (AND AGE >= 25)
// yields a different digest. Section 4 of the paper relies on exactly
// this behaviour: the digest table counts queries per canonical form,
// which for SPLASHE-rewritten queries means per plaintext value.
//
// Input that fails to lex canonicalizes to the raw text with collapsed
// whitespace; the digest table must never reject a statement.
func Digest(src string) string {
	toks, err := Tokenize(src)
	if err != nil {
		return fallbackDigest(src)
	}
	return renderDigest(toks, len(src))
}

// fallbackDigest is the digest of input that fails to lex.
func fallbackDigest(src string) string { return strings.Join(strings.Fields(src), " ") }

// renderDigest renders the canonical form of toks, lexed from srcLen
// bytes of input.
func renderDigest(toks []Token, srcLen int) string {
	var sb strings.Builder
	sb.Grow(srcLen)
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

// needSpace decides whether a space separates prev and cur in the
// canonical rendering. The goal is stable, readable output: words are
// space-separated; punctuation hugs its operands except that commas get
// a trailing space and binary operators are spaced.
func needSpace(prev, cur Token) bool {
	if prev.Kind == TokSymbol {
		switch prev.Text {
		case "(", ".":
			return false
		case ",":
			return true
		}
		// Operators and ')' get a following space unless the current
		// token is closing punctuation.
	}
	if cur.Kind == TokSymbol {
		switch cur.Text {
		case "(", ")":
			// '(' hugs a preceding aggregate keyword: COUNT(, SUM(.
			if cur.Text == "(" && prev.Kind == TokKeyword && (prev.Text == "COUNT" || prev.Text == "SUM") {
				return false
			}
			if cur.Text == ")" {
				return false
			}
			return true
		case ",", ";", ".":
			return false
		}
	}
	return true
}

// DigestHash returns a short stable hex hash of the canonical form,
// mirroring performance_schema's DIGEST column (the canonical text is
// the DIGEST_TEXT column).
func DigestHash(src string) string {
	return HashDigestText(Digest(src))
}

// HashDigestText hashes an already-canonicalized digest text. Callers
// that cache the canonical form (the engine's plan cache) use this to
// skip re-tokenizing the statement; HashDigestText(Digest(s)) ==
// DigestHash(s) by construction.
func HashDigestText(digestText string) string {
	sum := sha256.Sum256([]byte(digestText))
	var text [32]byte
	hex.Encode(text[:], sum[:16])
	return string(text[:])
}
