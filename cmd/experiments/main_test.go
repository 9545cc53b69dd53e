package main

import (
	"flag"
	"strings"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/pipeline"
)

func TestParseArgsValid(t *testing.T) {
	var errBuf strings.Builder
	cfg, err := parseArgs([]string{"-size", "test", "-timing", "classC", "-only", "tab5", "-j", "3"}, &errBuf)
	if err != nil {
		t.Fatalf("parseArgs: %v (stderr: %s)", err, errBuf.String())
	}
	if cfg.size != bio.SizeTest || cfg.timing != bio.SizeC {
		t.Fatalf("sizes = %v/%v, want test/classC", cfg.size, cfg.timing)
	}
	if cfg.only != "tab5" || cfg.jobs != 3 {
		t.Fatalf("only=%q jobs=%d", cfg.only, cfg.jobs)
	}
}

func TestParseArgsTimingFlags(t *testing.T) {
	cfg, err := parseArgs([]string{"-fidelity", "full", "-sweep"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.fidelity != pipeline.FidelityFull {
		t.Fatalf("fidelity = %v, want full", cfg.fidelity)
	}
	if !cfg.sweep {
		t.Fatal("sweep flag not set")
	}
}

func TestParseArgsDefaults(t *testing.T) {
	cfg, err := parseArgs(nil, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.size != bio.SizeB || cfg.timing != bio.SizeB || cfg.jobs != 0 || cfg.only != "" {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.fidelity != pipeline.FidelityFast || cfg.sweep {
		t.Fatalf("unexpected timing defaults: fidelity=%v sweep=%v", cfg.fidelity, cfg.sweep)
	}
}

// TestParseArgsRejects pins down the error paths: each bad invocation
// must fail parsing (so main exits non-zero) with a message naming
// the offending flag.
func TestParseArgsRejects(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"unknown flag", []string{"-frobnicate"}, "frobnicate"},
		{"negative jobs", []string{"-j", "-3"}, "invalid worker count -3"},
		{"bad size", []string{"-size", "classZ"}, "-size"},
		{"bad timing size", []string{"-timing", "huge"}, "-timing"},
		{"unknown experiment", []string{"-only", "tab99"}, "unknown experiment"},
		{"bad fidelity", []string{"-fidelity", "approximate"}, "-fidelity"},
		{"removed bench-json flag", []string{"-bench-json", "x"}, "flag provided but not defined: -bench-json"},
		{"removed bench-samples flag", []string{"-bench-samples", "3"}, "flag provided but not defined: -bench-samples"},
		{"stray positional args", []string{"tab5"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBuf strings.Builder
			_, err := parseArgs(tc.args, &errBuf)
			if err == nil {
				t.Fatalf("parseArgs(%v) succeeded, want error", tc.args)
			}
			combined := err.Error() + " " + errBuf.String()
			if !strings.Contains(combined, tc.wantMsg) {
				t.Fatalf("parseArgs(%v) error %q (stderr %q) missing %q",
					tc.args, err, errBuf.String(), tc.wantMsg)
			}
		})
	}
}

func TestParseArgsHelp(t *testing.T) {
	var errBuf strings.Builder
	_, err := parseArgs([]string{"-h"}, &errBuf)
	if err != flag.ErrHelp {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(errBuf.String(), "-size") {
		t.Fatalf("usage text missing flags: %s", errBuf.String())
	}
}
