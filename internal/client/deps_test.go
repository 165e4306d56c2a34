package client

import (
	"os/exec"
	"strings"
	"testing"
)

// TestClientDoesNotLinkTheEngine holds the reason internal/wire exists:
// a program that only talks to a snapdb server must not compile one in.
// Before the codec moved to a leaf, two calls to server.Unescape pulled
// internal/server — and with it the engine, B+tree, WAL and buffer
// pool — into every client binary.
func TestClientDoesNotLinkTheEngine(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "snapdb/internal/server" || strings.HasPrefix(dep, "snapdb/internal/engine") {
			t.Errorf("internal/client links %s", dep)
		}
	}
}
