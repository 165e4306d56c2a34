package client

import (
	"testing"

	"snapdb/internal/wire"
)

// FuzzDecodeValue drives the value parser every reply row goes through
// with arbitrary input: malformed values are rejected, never a panic,
// and an accepted value re-encodes to something that decodes back to
// itself — or a value the server renders could be unreadable (or worse,
// misread) by the client. Server and client share internal/wire's one
// decoder, so there is no second parser left to cross-check.
func FuzzDecodeValue(f *testing.F) {
	for _, seed := range []string{
		"i:42", "i:-7", "i:9223372036854775807", "i:", "i:12x",
		"s:hello", `s:a\tb`, `s:trailing\`, `s:\x`, "s:",
		"", "x:nope", "i", "s", "si:1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		v, err := wire.DecodeValue([]byte(in))
		if err != nil {
			return
		}
		re := wire.EncodeValue(v)
		rv, err := wire.DecodeValue([]byte(re))
		if err != nil {
			t.Fatalf("re-encoded %q -> %q no longer decodes: %v", in, re, err)
		}
		if rv != v {
			t.Fatalf("round trip of %q changed the value: %+v -> %+v", in, v, rv)
		}
	})
}
