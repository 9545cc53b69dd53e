package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRetiredSubcommands: the old benchmark subcommands are gone, so
// their names fall through to the single-program flag parser, which
// refuses a stray positional argument instead of running a program.
func TestRetiredSubcommands(t *testing.T) {
	for _, name := range []string{"bench-trace", "bench-sampling"} {
		var out, errb bytes.Buffer
		code := run([]string{name, "-size", "test"}, &out, &errb)
		if code == 0 {
			t.Fatalf("%s: exit 0, want non-zero (stdout %q)", name, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q", name, out.String())
		}
		if !strings.Contains(errb.String(), "unexpected arguments") {
			t.Errorf("%s: stderr %q does not reject the argument", name, errb.String())
		}
	}
}

// TestRunDispatch: a subcommand name reaches its subcommand, and
// plain flags reach the single-program path.
func TestRunDispatch(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"replay"}, &out, &errb); code != 2 {
		t.Fatalf("replay with no file: exit %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "usage: bioperf replay") {
		t.Errorf("replay usage missing: %q", errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list: exit %d (stderr %q)", code, errb.String())
	}
	if !strings.Contains(out.String(), "hmmsearch") || !strings.Contains(out.String(), "platforms:") {
		t.Errorf("-list output incomplete: %q", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-size", "classb"}, &out, &errb); code != 2 {
		t.Fatalf("-size classb: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown size") {
		t.Errorf("-size classb: stderr %q", errb.String())
	}
}
