// Command experiments regenerates every table and figure of the
// paper's evaluation and prints them in order. The -size flag selects
// the characterization input scale and -timing the Table 8/Figure 9
// scale (the paper profiles with class-B inputs and times with
// class-C). Timing experiments run on the fast tier, the cycle-level
// model on 1/32 sampled windows, by default; -fidelity full reproduces
// the exact paper cells over the whole stream, and -sweep adds the
// machine-grid sweep the fast tier makes affordable. All experiments
// share one analysis session: each kernel is compiled once and
// functionally simulated once, every analyzer reads from that shared
// run, and independent simulations fan out across -j worker goroutines
// with deterministic output. SIGINT and SIGTERM cancel the session's
// in-flight simulations.
//
//	go run ./cmd/experiments -size classB -timing classB -j 8 \
//	    -fidelity full -sweep
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/experiments"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/runner"
)

// onlyNames are the -only selector values, in output order.
var onlyNames = []string{
	"fig1", "tab1", "fig2", "tab2", "tab4", "tab5", "tab6", "tab7",
	"tab8", "fig9", "sweep", "ablations",
}

// config is one fully validated command line.
type config struct {
	size      bio.Size
	timing    bio.Size
	only      string
	ablations bool
	sweep     bool
	jobs      int
	fidelity  pipeline.Fidelity
	accuracy  runner.Accuracy
}

// parseArgs parses and validates the command line. Unknown flags,
// unknown -size/-timing/-only values, negative -j values, and stray
// positional arguments all return an error (main exits non-zero)
// instead of being silently absorbed.
func parseArgs(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sizeFlag := fs.String("size", "classB", "characterization input size (test|classB|classC)")
	timingFlag := fs.String("timing", "classB", "Table 8 / Figure 9 input size")
	only := fs.String("only", "", "run a single experiment (fig1|tab1|fig2|tab2|tab4|tab5|tab6|tab7|tab8|fig9|sweep|ablations)")
	ablations := fs.Bool("ablations", false, "also run the causal ablations (L1 latency, predictor, passes, restrict)")
	sweep := fs.Bool("sweep", false, "also run the machine-grid sweep (always on the fast tier)")
	jobs := fs.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = sequential)")
	fidelity := fs.String("fidelity", "fast", "timing tier for Table 8/Figure 9 and ablations (fast|full)")
	accuracy := fs.String("accuracy", "exact", "characterization tier for Figure 1 / Tables 1-4 (exact|sampled)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	cfg := &config{only: *only, ablations: *ablations, sweep: *sweep, jobs: *jobs}
	var err error
	if cfg.size, err = bio.ParseSize(*sizeFlag); err != nil {
		return nil, fmt.Errorf("-size: %w", err)
	}
	if cfg.timing, err = bio.ParseSize(*timingFlag); err != nil {
		return nil, fmt.Errorf("-timing: %w", err)
	}
	if cfg.fidelity, err = pipeline.ParseFidelity(*fidelity); err != nil {
		return nil, fmt.Errorf("-fidelity: %w", err)
	}
	if cfg.accuracy, err = runner.ParseAccuracy(*accuracy); err != nil {
		return nil, fmt.Errorf("-accuracy: %w", err)
	}
	if cfg.jobs < 0 {
		return nil, fmt.Errorf("-j: invalid worker count %d (must be >= 0; 0 = GOMAXPROCS)", cfg.jobs)
	}
	if cfg.only != "" {
		ok := false
		for _, n := range onlyNames {
			if cfg.only == n {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("-only: unknown experiment %q (valid: %v)", cfg.only, onlyNames)
		}
	}
	return cfg, nil
}

func main() {
	log.SetFlags(0)
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, cfg *config, out io.Writer) error {
	sz, tsz := cfg.size, cfg.timing
	s := runner.NewSession(cfg.jobs)
	want := func(name string) bool { return cfg.only == "" || cfg.only == name }
	start := time.Now()

	var profiles []*experiments.ProgramProfile
	needProfiles := want("fig1") || want("tab1") || want("tab2") || want("tab4")
	if needProfiles {
		log.Printf("characterizing the nine applications at %s (%s, j=%d)...", sz, cfg.accuracy, s.Jobs())
		var err error
		profiles, err = experiments.CharacterizeSessionAccuracy(ctx, s, sz, cfg.accuracy)
		if err != nil {
			return err
		}
	}

	if want("fig1") {
		fmt.Fprintln(out, experiments.RenderFig1(experiments.Fig1(profiles)))
	}
	if want("tab1") {
		fmt.Fprintln(out, experiments.RenderTable1(experiments.Table1(profiles)))
	}
	if want("fig2") {
		series, err := experiments.Fig2Session(ctx, s, sz)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.RenderFig2(series))
	}
	if want("tab2") {
		fmt.Fprintln(out, experiments.RenderTable2(experiments.Table2(profiles)))
	}
	if want("tab4") {
		fmt.Fprintln(out, experiments.RenderTable4(experiments.Table4(profiles)))
	}
	if want("tab5") {
		rows, err := experiments.Table5Session(ctx, s, sz, 8)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.RenderTable5(rows))
	}
	if want("tab6") {
		fmt.Fprintln(out, experiments.RenderTable6(experiments.Table6()))
	}
	if want("tab7") {
		fmt.Fprintln(out, experiments.RenderTable7())
	}
	if want("tab8") || want("fig9") {
		log.Printf("timing the six transformed applications at %s on four platforms (%s tier, j=%d)...",
			tsz, cfg.fidelity, s.Jobs())
		cells, err := experiments.Table8SessionFidelity(ctx, s, tsz, cfg.fidelity)
		if err != nil {
			return err
		}
		if want("tab8") {
			fmt.Fprintln(out, experiments.RenderTable8(cells))
		}
		if want("fig9") {
			fmt.Fprintln(out, experiments.RenderFig9(experiments.Fig9(cells)))
		}
	}
	if cfg.sweep || cfg.only == "sweep" {
		log.Printf("sweeping the machine grid at %s (fast tier)...", tsz)
		rows, err := experiments.SweepSession(ctx, s, tsz, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.RenderSweep(rows))
	}
	if cfg.ablations || cfg.only == "ablations" {
		log.Printf("running ablations on hmmsearch at %s (%s tier)...", tsz, cfg.fidelity)
		if rows, err := experiments.AblateL1Latency(ctx, s, "hmmsearch", tsz, []int{1, 2, 3, 4, 5}, cfg.fidelity); err != nil {
			return err
		} else {
			fmt.Fprintln(out, experiments.RenderAblation("L1 hit latency sweep (Alpha model)", rows))
		}
		if rows, err := experiments.AblatePredictor(ctx, s, "hmmsearch", tsz, cfg.fidelity); err != nil {
			return err
		} else {
			fmt.Fprintln(out, experiments.RenderAblation("branch predictor (Alpha model)", rows))
		}
		if rows, err := experiments.AblatePasses(ctx, s, "hmmsearch", tsz, cfg.fidelity); err != nil {
			return err
		} else {
			fmt.Fprintln(out, experiments.RenderAblation("compiler passes (Alpha model)", rows))
		}
		for _, plat := range []string{"itanium2", "alpha21264"} {
			if rows, err := experiments.AblateRestrict(ctx, s, "hmmsearch", plat, tsz, cfg.fidelity); err != nil {
				return err
			} else {
				fmt.Fprintln(out, experiments.RenderAblation("restrict parameters ("+plat+")", rows))
			}
		}
	}

	st := s.Stats()
	log.Printf("done in %v (%d compiles, %d compile-cache hits, %d runs, %d shared-run hits)",
		time.Since(start).Round(time.Millisecond), st.Compiles, st.CompileHits, st.Runs, st.CharacterizeHits)
	return nil
}
