// Package wire is the value and escaping codec of snapdb's line
// protocol: how one sqlparse.Value, and any free text (TEXT values,
// ERR messages), is spelt inside a reply line. It is a leaf — the
// server renders with it and the client parses with it, and neither
// side's choice of the other's package may pull an engine into a
// client binary.
package wire

import (
	"fmt"
	"strconv"
	"strings"

	"snapdb/internal/sqlparse"
)

// EncodeValue renders a value in the wire format: "i:<decimal>" or
// "s:<escaped text>".
func EncodeValue(v sqlparse.Value) string {
	if v.IsInt {
		return "i:" + strconv.FormatInt(v.Int, 10)
	}
	return "s:" + Escape(v.Str)
}

// DecodeValue parses one wire-format value off a reply line's bytes.
func DecodeValue(b []byte) (sqlparse.Value, error) {
	if len(b) >= 2 && b[0] == 'i' && b[1] == ':' {
		n, err := strconv.ParseInt(string(b[2:]), 10, 64)
		if err != nil {
			return sqlparse.Value{}, fmt.Errorf("wire: bad int %q: %w", b, err)
		}
		return sqlparse.IntValue(n), nil
	}
	if len(b) >= 2 && b[0] == 's' && b[1] == ':' {
		str, err := Unescape(string(b[2:]))
		if err != nil {
			return sqlparse.Value{}, err
		}
		return sqlparse.StrValue(str), nil
	}
	return sqlparse.Value{}, fmt.Errorf("wire: bad value tag in %q", b)
}

// Escape renders s in the wire escaping: \\, \t, \n and \r become
// two-byte escapes, so no payload byte can be mistaken for a line or
// field terminator. Used for TEXT values and ERR messages.
func Escape(s string) string {
	if !strings.ContainsAny(s, "\\\t\n\r") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '\t':
			sb.WriteString(`\t`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// Unescape reverses Escape.
func Unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("wire: dangling escape in %q", s)
		}
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case 't':
			sb.WriteByte('\t')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		default:
			return "", fmt.Errorf("wire: unknown escape \\%c", s[i])
		}
	}
	return sb.String(), nil
}
