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
//	bioperf bench-trace -size classB -json BENCH_trace.json
//	bioperf validate-timing -size test
//
// Phase analysis: inspect the SimPoint-style sampling plan and compare
// sampled characterization against exact replay:
//
//	bioperf -program hmmsearch -size classC -profile -accuracy sampled
//	bioperf phases -program hmmsearch -size classB
//	bioperf bench-sampling -sizes classB,classC -json BENCH_sampling.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"bioperfload"
	"bioperfload/internal/runner"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			os.Exit(cmdTrace(os.Args[2:], os.Stdout, os.Stderr))
		case "replay":
			os.Exit(cmdReplay(os.Args[2:], os.Stdout, os.Stderr))
		case "bench-trace":
			os.Exit(cmdBenchTrace(os.Args[2:], os.Stderr))
		case "validate-timing":
			os.Exit(cmdValidateTiming(os.Args[2:], os.Stderr))
		case "phases":
			os.Exit(cmdPhases(os.Args[2:], os.Stderr))
		case "bench-sampling":
			os.Exit(cmdBenchSampling(os.Args[2:], os.Stderr))
		}
	}
	list := flag.Bool("list", false, "list the applications and platforms")
	name := flag.String("program", "hmmsearch", "application to run")
	sizeFlag := flag.String("size", "test", "input size (test|classB|classC)")
	profile := flag.Bool("profile", false, "run the load characterization")
	platName := flag.String("platform", "", "run the timing model for this platform")
	fidelity := flag.String("fidelity", "full", "timing tier for -platform (full|fast)")
	transformed := flag.Bool("transformed", false, "use the load-transformed sources")
	hot := flag.Int("hot", 6, "hot loads to print with -profile")
	accuracy := flag.String("accuracy", "exact", "characterization tier for -profile (exact|sampled)")
	flag.Parse()

	if *list {
		fmt.Println("applications:")
		for _, p := range bioperfload.Programs() {
			tr := " "
			if p.Transformable {
				tr = "T"
			}
			fmt.Printf("  [%s] %-13s %s\n", tr, p.Name, p.Area)
		}
		fmt.Println("platforms:")
		for _, pl := range bioperfload.Platforms() {
			fmt.Printf("      %-11s %s\n", pl.Name, pl.Description)
		}
		return
	}

	var sz bioperfload.Size
	switch *sizeFlag {
	case "test":
		sz = bioperfload.SizeTest
	case "classB", "b", "B":
		sz = bioperfload.SizeB
	case "classC", "c", "C":
		sz = bioperfload.SizeC
	default:
		log.Fatalf("unknown size %q", *sizeFlag)
	}

	p, err := bioperfload.Program(*name)
	if err != nil {
		log.Fatal(err)
	}

	switch {
	case *profile:
		acc, err := runner.ParseAccuracy(*accuracy)
		if err != nil {
			log.Fatal(err)
		}
		sess := runner.NewSession(runtime.GOMAXPROCS(0))
		prof, err := sess.CharacterizeAccuracy(context.Background(), p, sz, acc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bioperfload.RenderProfile(p.Name, sz.String(), prof.Analysis, *hot))

	case *platName != "":
		plat, err := bioperfload.PlatformByName(*platName)
		if err != nil {
			log.Fatal(err)
		}
		fid, err := bioperfload.ParseFidelity(*fidelity)
		if err != nil {
			log.Fatal(err)
		}
		plat = plat.WithFidelity(fid)
		st, err := bioperfload.Evaluate(p, plat, sz, *transformed)
		if err != nil {
			log.Fatal(err)
		}
		kind := "original"
		if *transformed {
			kind = "load-transformed"
		}
		fmt.Printf("%s (%s, %s, %s tier) on %s:\n", p.Name, kind, sz, fid, plat.Name)
		fmt.Printf("  %d instructions, %d cycles (IPC %.2f)\n", st.Instructions, st.Cycles, st.IPC())
		fmt.Printf("  %d cond branches, %.2f%% mispredicted\n", st.CondBranches, 100*st.MispredictRate())
		fmt.Printf("  %d loads, AMAT %.2f cycles (L1 %d / L2 %d / mem %d)\n",
			st.Loads, st.AMAT(), st.L1Hits, st.L2Hits, st.MemHits)
		if p.Transformable && !*transformed {
			sp, err := bioperfload.Speedup(p, plat, sz)
			if err == nil {
				fmt.Printf("  load transformation speedup on this platform: %.1f%%\n", 100*sp)
			}
		}

	default:
		prog, err := p.Compile(*transformed, bioperfload.DefaultCompiler())
		if err != nil {
			log.Fatal(err)
		}
		m, err := bioperfload.NewMachine(prog)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.Bind(m, sz); err != nil {
			log.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			log.Fatal(err)
		}
		if err := p.Validate(res, sz); err != nil {
			fmt.Fprintf(os.Stderr, "VALIDATION FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d instructions, output %v (validated)\n",
			p.Name, res.Instructions, res.IntOutput)
	}
}
