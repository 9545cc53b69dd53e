package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bioperfload"
	"bioperfload/internal/bio"
	"bioperfload/internal/runner"
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

// TestEvaluateSimulatesEachVariantOnce: timing a transformable
// original also times its load-transformed variant for the speedup
// line, in one EvaluateAll, so the session runs two simulations, not
// three, and the line agrees with bioperfload.Speedup.
func TestEvaluateSimulatesEachVariantOnce(t *testing.T) {
	p := bio.Transformed()[0]
	plat, err := bioperfload.PlatformByName("alpha21264")
	if err != nil {
		t.Fatal(err)
	}
	sess := runner.NewSession(1)
	var out bytes.Buffer
	if err := evaluate(sess, &out, p, plat, bio.SizeTest, false); err != nil {
		t.Fatal(err)
	}
	if runs := sess.Stats().Runs; runs != 2 {
		t.Errorf("session ran %d simulations, want 2", runs)
	}
	sp, err := bioperfload.Speedup(p, plat, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("  load transformation speedup on this platform: %.1f%%\n", 100*sp)
	if !strings.HasSuffix(out.String(), want) {
		t.Errorf("output does not end in %q:\n%s", want, out.String())
	}
}
