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
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runner"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// record simulates p at sz with a trace writer attached and returns
// the validated result. The trace is written to w and is only complete
// (footer present) if record returns nil error.
func record(p *bio.Program, prog *isa.Program, sz bio.Size, fp string, w io.Writer, compression string) (*sim.Result, *trace.Writer, error) {
	m, err := sim.New(prog)
	if err != nil {
		return nil, nil, err
	}
	if err := p.Bind(m, sz); err != nil {
		return nil, nil, fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	tw := trace.NewWriter(w, trace.Meta{
		Program:     p.Name,
		Fingerprint: fp,
		Size:        sz.String(),
		Compression: compression,
	}, prog)
	m.SetChunkSink(trace.ChunkEvents, tw.WriteChunk)
	res, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	if err := p.Validate(res, sz); err != nil {
		return nil, nil, fmt.Errorf("%s: validation: %w", p.Name, err)
	}
	if err := tw.Close(); err != nil {
		return nil, nil, fmt.Errorf("%s: trace: %w", p.Name, err)
	}
	if tw.Events() != res.Instructions {
		return nil, nil, fmt.Errorf("%s: trace recorded %d events for %d instructions",
			p.Name, tw.Events(), res.Instructions)
	}
	return res, tw, nil
}

// cmdTrace records a committed-instruction trace of one program run to
// a file, for later offline replay with `bioperf replay`.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("program", "hmmsearch", "application to record")
	sizeFlag := fs.String("size", "test", "input size (test|classB|classC)")
	out := fs.String("o", "", "output path (default <program>-<size>.trace)")
	comp := fs.String("compression", "flate", "chunk codec: flate (smallest) or none (fastest replay)")
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

	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	if *comp != "flate" && *comp != "none" {
		fmt.Fprintf(stderr, "bioperf trace: -compression: unknown codec %q (flate|none)\n", *comp)
		return 2
	}
	fp := runner.Fingerprint(p, false, compiler.Default())
	res, tw, err := record(p, prog, sz, fp, f, *comp)
	if err != nil {
		f.Close()
		os.Remove(path)
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	st, _ := os.Stat(path)
	fmt.Fprintf(stdout, "%s: %d instructions -> %s (%d bytes, %.2f bits/event)\n",
		p.Name, res.Instructions, path, st.Size(),
		8*float64(st.Size())/float64(tw.Events()))
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
