// Command bioperf runs and characterizes individual BioPerf
// applications on the simulated machine.
//
//	bioperf -list
//	bioperf -program hmmsearch -size classB -profile
//	bioperf -program hmmsearch -size classB -platform alpha21264 -transformed
//
// Subcommands record and replay committed-instruction traces, and
// validate the fast timing tier against the full model:
//
//	bioperf trace -program hmmsearch -size classB -o hmm.trace
//	bioperf replay -j 2 hmm.trace
//	bioperf validate-timing -size test
//
// Phase analysis: characterize from SimPoint-style sampled phases and
// inspect the sampling plan:
//
//	bioperf -program hmmsearch -size classC -profile -accuracy sampled
//	bioperf phases -program hmmsearch -size classB
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	"bioperfload"
	"bioperfload/internal/bio"
	"bioperfload/internal/runner"
)

func main() {
	log.SetFlags(0)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches on the first argument: a subcommand name runs that
// subcommand, anything else is parsed as the single-program flags.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "trace":
			return cmdTrace(args[1:], stdout, stderr)
		case "replay":
			return cmdReplay(args[1:], stdout, stderr)
		case "validate-timing":
			return cmdValidateTiming(args[1:], stdout, stderr)
		case "phases":
			return cmdPhases(args[1:], stdout, stderr)
		}
	}
	return cmdProgram(args, stdout, stderr)
}

// cmdProgram runs, characterizes or times one application.
func cmdProgram(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the applications and platforms")
	name := fs.String("program", "hmmsearch", "application to run")
	sizeFlag := fs.String("size", "test", "input size (test|classB|classC)")
	profile := fs.Bool("profile", false, "run the load characterization")
	platName := fs.String("platform", "", "run the timing model for this platform")
	fidelity := fs.String("fidelity", "full", "timing tier for -platform (full|fast)")
	transformed := fs.Bool("transformed", false, "use the load-transformed sources")
	hot := fs.Int("hot", 6, "hot loads to print with -profile")
	accuracy := fs.String("accuracy", "exact", "characterization tier for -profile (exact|sampled)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bioperf: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *list {
		fmt.Fprintln(stdout, "applications:")
		for _, p := range bioperfload.Programs() {
			tr := " "
			if p.Transformable {
				tr = "T"
			}
			fmt.Fprintf(stdout, "  [%s] %-13s %s\n", tr, p.Name, p.Area)
		}
		fmt.Fprintln(stdout, "platforms:")
		for _, pl := range bioperfload.Platforms() {
			fmt.Fprintf(stdout, "      %-11s %s\n", pl.Name, pl.Description)
		}
		return 0
	}

	sz, err := bio.ParseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf: -size: %v\n", err)
		return 2
	}

	p, err := bioperfload.Program(*name)
	if err != nil {
		return fail(err)
	}

	switch {
	case *profile:
		acc, err := runner.ParseAccuracy(*accuracy)
		if err != nil {
			return fail(err)
		}
		sess := runner.NewSession(runtime.GOMAXPROCS(0))
		prof, err := sess.CharacterizeAccuracy(context.Background(), p, sz, acc)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, bioperfload.RenderProfile(p.Name, sz.String(), prof.Analysis, *hot))

	case *platName != "":
		plat, err := bioperfload.PlatformByName(*platName)
		if err != nil {
			return fail(err)
		}
		fid, err := bioperfload.ParseFidelity(*fidelity)
		if err != nil {
			return fail(err)
		}
		plat = plat.WithFidelity(fid)
		st, err := bioperfload.Evaluate(p, plat, sz, *transformed)
		if err != nil {
			return fail(err)
		}
		kind := "original"
		if *transformed {
			kind = "load-transformed"
		}
		fmt.Fprintf(stdout, "%s (%s, %s, %s tier) on %s:\n", p.Name, kind, sz, fid, plat.Name)
		fmt.Fprintf(stdout, "  %d instructions, %d cycles (IPC %.2f)\n", st.Instructions, st.Cycles, st.IPC())
		fmt.Fprintf(stdout, "  %d cond branches, %.2f%% mispredicted\n", st.CondBranches, 100*st.MispredictRate())
		fmt.Fprintf(stdout, "  %d loads, AMAT %.2f cycles (L1 %d / L2 %d / mem %d)\n",
			st.Loads, st.AMAT(), st.L1Hits, st.L2Hits, st.MemHits)
		if p.Transformable && !*transformed {
			sp, err := bioperfload.Speedup(p, plat, sz)
			if err == nil {
				fmt.Fprintf(stdout, "  load transformation speedup on this platform: %.1f%%\n", 100*sp)
			}
		}

	default:
		prog, err := p.Compile(*transformed, bioperfload.DefaultCompiler())
		if err != nil {
			return fail(err)
		}
		res, err := p.Run(context.Background(), prog, sz, nil)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: %d instructions, output %v (validated)\n",
			p.Name, res.Instructions, res.IntOutput)
	}
	return 0
}
