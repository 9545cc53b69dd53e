package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runner"
	"bioperfload/internal/trace"
)

// cmdTrace records a committed-instruction trace of one program run to
// a file, for later offline replay with `bioperf replay`.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("program", "hmmsearch", "application to record")
	sizeFlag := fs.String("size", "test", "input size (test|classB|classC)")
	out := fs.String("o", "", "output path (default <program>-<size>.trace)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bioperf trace: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	sz, err := bio.ParseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf trace: -size: %v\n", err)
		return 2
	}
	p, err := bio.ByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 2
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s.trace", p.Name, sz)
	}

	// The session records through the same recorder a store-backed
	// session commits its traces with.
	data, n, err := runner.NewSession(1).RecordTrace(context.Background(), p, sz)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		os.Remove(path)
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d instructions -> %s (%d bytes, %.2f bits/event)\n",
		p.Name, n, path, len(data), 8*float64(len(data))/float64(n))
	return 0
}

// cmdReplay re-runs the load characterization from a recorded trace:
// no compilation beyond rebinding instruction metadata, no simulation.
// The trace replays through the sharded analyzer; a trace in a retired
// format is refused with a message to re-record it.
func cmdReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("j", 1, "replay shard workers (0 = GOMAXPROCS)")
	hot := fs.Int("hot", 6, "hot loads to print")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "usage: bioperf replay [-j n] [-hot n] file.trace\n")
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "bioperf replay: -j: invalid worker count %d\n", *jobs)
		return 2
	}
	if *jobs == 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	ir, err := trace.NewIndexedReader(f, fi.Size())
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	meta := ir.Meta()
	p, err := bio.ByName(meta.Program)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: trace program: %v\n", err)
		return 1
	}
	if fp := runner.Fingerprint(p, false, compiler.Default()); meta.Fingerprint != fp {
		// The fingerprint comes from the file; it may be any length.
		short := meta.Fingerprint
		if len(short) > 12 {
			short = short[:12]
		}
		fmt.Fprintf(stderr, "bioperf replay: fingerprint mismatch: trace %q was recorded from a different %s build\n",
			short, p.Name)
		return 1
	}
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	a, err := runner.ReplayAnalyze(context.Background(), prog, ir, *jobs)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	if e := a.Exec; e.RequestedWorkers > 1 && !e.Parallel() {
		fmt.Fprintf(stderr, "bioperf replay: note: %d workers requested, ran serial (%s)\n", e.RequestedWorkers, e.SerialReason)
	}
	fmt.Fprint(stdout, loadchar.RenderProfile(p.Name, meta.Size, a, *hot))
	return 0
}
