package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"

	"bioperfload/internal/bio"
	"bioperfload/internal/runner"
	"bioperfload/internal/simpoint"
)

// clusterGlyph maps a cluster id to one timeline character.
func clusterGlyph(c int) byte {
	const glyphs = "0123456789abcdefghijklmnopqrstuvwxyz"
	if c < 0 || c >= len(glyphs) {
		return '?'
	}
	return glyphs[c]
}

// cmdPhases renders the sampling decision for one (program, size): the
// interval-to-cluster timeline plus each cluster's representative and
// weight — the plan `-accuracy sampled` executes.
func cmdPhases(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf phases", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("program", "hmmsearch", "application to analyze")
	sizeFlag := fs.String("size", "classB", "input size (test|classB|classC)")
	interval := fs.Uint64("interval", 0, fmt.Sprintf("events per interval (0 = default %dKi)", simpoint.DefaultIntervalSize>>10))
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bioperf phases: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *jobs == 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	sz, err := bio.ParseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf phases: -size: %v\n", err)
		return 2
	}
	p, err := bio.ByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf phases: %v\n", err)
		return 2
	}

	s := runner.NewSession(*jobs)
	s.SetSimPoint(simpoint.Config{IntervalSize: *interval})
	plan, err := s.PhasePlan(context.Background(), p, sz)
	var de *simpoint.DegradeError
	if errors.As(err, &de) {
		fmt.Fprintf(stdout, "%s %s: no phase plan — %s; characterization would run exact\n", p.Name, sz, de.Reason)
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "bioperf phases: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "%s %s: %d events in %d intervals of %d -> %d phase(s)\n",
		p.Name, sz, plan.TotalEvents, len(plan.Intervals), plan.Config.IntervalSize, plan.K)
	for i, c := range plan.Clusters {
		rep := plan.Intervals[c.Rep]
		fmt.Fprintf(stdout, "  phase %c: %3d interval(s), weight %4.1f%%, representative #%d [%d,%d)\n",
			clusterGlyph(i), len(c.Members), 100*float64(c.Weight)/float64(len(plan.Intervals)),
			rep.Index, c.Start, c.End)
	}
	fmt.Fprintln(stdout, "timeline (one glyph per interval):")
	const width = 64
	for lo := 0; lo < len(plan.Assign); lo += width {
		hi := lo + width
		if hi > len(plan.Assign) {
			hi = len(plan.Assign)
		}
		row := make([]byte, hi-lo)
		for i := lo; i < hi; i++ {
			row[i-lo] = clusterGlyph(plan.Assign[i])
		}
		fmt.Fprintf(stdout, "  %8d  %s\n", lo, row)
	}
	return 0
}
