package server

import (
	"strings"
	"testing"

	"snapdb/internal/wire"
)

// FuzzUnescape drives the wire escaping both ways: Escape must render
// any string free of line and field terminators and be perfectly
// reversible, and Unescape must handle arbitrary attacker-controlled
// bytes without panicking — it sits directly on the untrusted side of
// every ERR message and TEXT value a client parses. The codec lives in
// internal/wire; the target stays with the package that renders with
// it, under the name the fuzz-smoke list and the test floor know.
func FuzzUnescape(f *testing.F) {
	for _, seed := range []string{
		"", "plain", `a\tb`, "tab\there", "nl\nhere", "cr\rhere",
		`\\`, `trailing\`, `\x`, "mixed\t\n\r\\", `i:42`, `s:v`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		esc := wire.Escape(s)
		if strings.ContainsAny(esc, "\t\n\r") {
			t.Fatalf("wire.Escape(%q) = %q still contains a terminator byte", s, esc)
		}
		got, err := wire.Unescape(esc)
		if err != nil {
			t.Fatalf("wire.Unescape(wire.Escape(%q)) failed: %v", s, err)
		}
		if got != s {
			t.Fatalf("round trip lost bytes: %q -> %q -> %q", s, esc, got)
		}
		// Arbitrary input is allowed to be rejected (dangling or unknown
		// escapes) but never to crash; accepted input must re-escape to
		// something that unescapes back to the same string.
		u, err := wire.Unescape(s)
		if err != nil {
			return
		}
		again, err := wire.Unescape(wire.Escape(u))
		if err != nil || again != u {
			t.Fatalf("re-round-trip of %q diverged: %q, %v", u, again, err)
		}
	})
}
