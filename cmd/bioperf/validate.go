package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"bioperfload/internal/bio"
	"bioperfload/internal/runner"
	"bioperfload/internal/scoreboard/validate"
)

// cmdValidateTiming runs the fast-tier validation harness: every
// program on every platform through both timing tiers, asserting the
// scoreboard reproduces the full model's speedup ratios (and, for the
// non-transformable programs, cross-platform cycle ratios) within the
// checked-in per-program tolerances. Exits non-zero if any cell is out
// of tolerance.
func cmdValidateTiming(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("validate-timing", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sizeFlag := fs.String("size", "test", "input size (test|classB|classC)")
	jobs := fs.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "validate-timing: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	sz, err := bio.ParseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "validate-timing: -size: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rows, err := validate.Run(ctx, runner.NewSession(*jobs), sz)
	if err != nil {
		fmt.Fprintf(stderr, "validate-timing: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, validate.Render(rows))
	if err := validate.Check(rows); err != nil {
		fmt.Fprintf(stderr, "validate-timing: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "validate-timing: all %d cells within tolerance at %s\n", len(rows), sz)
	return 0
}
