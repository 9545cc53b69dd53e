package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsStrayArguments: a positional argument is a usage
// error, not silently ignored.
func TestRunRejectsStrayArguments(t *testing.T) {
	var errb bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:0", "serve"}, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unexpected arguments: [serve]") {
		t.Errorf("stderr %q does not reject the argument", errb.String())
	}
}

// TestRunRejectsNegativeCounts: a negative pool, queue or replica
// count is a usage error, not replaced by a default or clamped to 0.
func TestRunRejectsNegativeCounts(t *testing.T) {
	for _, flag := range []string{"-j", "-queue", "-workers", "-replicas"} {
		var errb bytes.Buffer
		if code := run([]string{"-addr", "127.0.0.1:0", flag, "-1"}, &errb); code != 2 {
			t.Fatalf("%s -1: exit %d, want 2 (stderr %q)", flag, code, errb.String())
		}
		if want := flag + " must not be negative"; !strings.Contains(errb.String(), want) {
			t.Errorf("%s -1: stderr %q, want %q", flag, errb.String(), want)
		}
	}
}

// TestRunClosesStoreWhenListenFails: when the address is taken, run
// fails with exit 1 and still closes the store it opened, which
// persists the store's index.
func TestRunClosesStoreWhenListenFails(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	dir := t.TempDir()
	var errb bytes.Buffer
	if code := run([]string{"-addr", busy.Addr().String(), "-store", dir}, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "address already in use") {
		t.Errorf("stderr %q does not report the listen failure", errb.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Errorf("store not closed after the listen failure: %v", err)
	}
}
