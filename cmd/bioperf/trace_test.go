package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runner"
	"bioperfload/internal/sim"
	"bioperfload/internal/store"
	"bioperfload/internal/trace"
)

// liveProfile simulates p at test size with a live analysis attached
// and renders the profile `bioperf replay` prints by default.
func liveProfile(t *testing.T, p *bio.Program) string {
	t.Helper()
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(m, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	live := loadchar.New(prog)
	m.AddBatchObserver(live)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return loadchar.RenderProfile(p.Name, bio.SizeTest.String(), live, 6)
}

func runReplay(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = cmdReplay(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestReplayRecordedTrace(t *testing.T) {
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hmmsearch.trace")
	var out, errb bytes.Buffer
	if code := cmdTrace([]string{"-program", p.Name, "-size", "test", "-o", path}, &out, &errb); code != 0 {
		t.Fatalf("trace exited %d: %s", code, errb.String())
	}
	// The file holds the bytes a store-backed session commits for the
	// same program and size: both record through the session's recorder.
	recorded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := runner.NewSessionWithStore(1, st).Characterize(context.Background(), p, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	key := "trace|" + runner.Fingerprint(p, false, compiler.Default()) + "|" + bio.SizeTest.String()
	stored, ok := st.GetBytes(key)
	if !ok {
		t.Fatalf("the session committed no trace under %q", key)
	}
	if !bytes.Equal(recorded, stored) {
		t.Fatalf("bioperf trace wrote %d bytes, the session committed %d different ones", len(recorded), len(stored))
	}

	want := liveProfile(t, p)
	for _, jobs := range []string{"1", "4"} {
		code, stdout, stderr := runReplay("-j", jobs, path)
		if code != 0 {
			t.Fatalf("-j %s: replay exited %d: %s", jobs, code, stderr)
		}
		if stdout != want {
			t.Errorf("-j %s: replayed profile differs from the live run:\n--- live ---\n%s\n--- replay ---\n%s", jobs, want, stdout)
		}
	}
}

// TestReplayShortFingerprint: the fingerprint comes from the file, so
// a trace recorded with an empty or short one must be refused with
// exit 1, not crash the mismatch message.
func TestReplayShortFingerprint(t *testing.T) {
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"", "ab12c"} {
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf, trace.Meta{Program: p.Name, Fingerprint: fp, Size: "test"}, prog)
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "short.trace")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, stderr := runReplay(path)
		if code != 1 {
			t.Fatalf("fingerprint %q: exit %d, want 1 (stderr %q)", fp, code, stderr)
		}
		if !strings.Contains(stderr, "fingerprint mismatch") {
			t.Errorf("fingerprint %q: stderr %q does not report the mismatch", fp, stderr)
		}
	}
}

// TestReplayLegacyTrace: a trace in a retired format exits 1 with a
// message to re-record it.
func TestReplayLegacyTrace(t *testing.T) {
	for v := 1; v <= 3; v++ {
		path := filepath.Join("..", "..", "internal", "trace", "testdata", "legacy", fmt.Sprintf("v%d.trace", v))
		code, stdout, stderr := runReplay(path)
		if code != 1 {
			t.Fatalf("v%d: exit %d, want 1 (stderr %q)", v, code, stderr)
		}
		if stdout != "" {
			t.Errorf("v%d: printed a profile for a rejected trace", v)
		}
		if !strings.Contains(stderr, "re-record") {
			t.Errorf("v%d: stderr %q does not say to re-record", v, stderr)
		}
	}
}

// TestTraceRejectsVersionFlag: there is one format and one codec, so
// the retired -trace-version and -compression flags are usage errors.
func TestTraceRejectsVersionFlag(t *testing.T) {
	for _, flag := range [][]string{{"-trace-version", "4"}, {"-compression", "none"}} {
		path := filepath.Join(t.TempDir(), "out.trace")
		var out, errb bytes.Buffer
		if code := cmdTrace(append(flag, "-o", path), &out, &errb); code != 2 {
			t.Fatalf("%s: exit %d, want 2 (stderr %q)", flag[0], code, errb.String())
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s: a trace was written despite the flag error", flag[0])
		}
	}
}
