package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/experiments"
	"bioperfload/internal/isa"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
	"bioperfload/internal/scoreboard"
	"bioperfload/internal/scoreboard/validate"
	"bioperfload/internal/sim"
)

// timing is Table 8, the paper's timing result and most of the classB
// experiments wall. Each pass, on a fresh session, runs the fast tier
// over all 48 cells (sampled functional runs feeding scoreboards) and
// then the full tier over the Alpha column — the platform every
// ablation uses — (complete runs feeding the out-of-order pipeline
// model). A full-tier pass over all four platforms takes longer than a
// whole run, so the other three columns are left to cmd/experiments.
// Neither tier touches loadchar, trace or store. The seed is unused:
// Table 8 has one fixed order.
type timing struct {
	e     *env
	progs []*bio.Program
	plats []platform.Platform
	ref   []experiments.Table8Cell // fast-tier cells of an untraced pass

	mu          sync.Mutex
	traced      int
	runs        int    // functional runs of traced passes
	observed    uint64 // events the traced fast runs' scoreboards saw
	fastInsts   uint64 // instructions the traced fast runs committed
	fullEvents  uint64 // events the traced full runs' pipelines saw
	maxSpeedErr float64
}

func newTiming(e *env) workload {
	return &timing{e: e, progs: bio.Transformed(), plats: platform.All()}
}

// fullPlatform is the full-tier column a pass measures.
func (w *timing) fullPlatform() platform.Platform {
	return w.plats[0].WithFidelity(pipeline.FidelityFull)
}

// setup runs the fast tier once at test size: it proves the path works
// and warms the process before the first timed pass.
func (w *timing) setup(ctx context.Context) error {
	_, err := experiments.Table8SessionFidelity(ctx, runner.NewSession(w.e.jobs), bio.SizeTest, pipeline.FidelityFast)
	return err
}

func (w *timing) pass(ctx context.Context, tr *tracer, parent, op int) func() {
	s := runner.NewSession(w.e.jobs)
	var cells []experiments.Table8Cell
	full := make([]pipeline.Stats, 2*len(w.progs))
	var err error
	if tr == nil {
		cells, err = experiments.Table8SessionFidelity(ctx, s, w.e.size, pipeline.FidelityFast)
		if err == nil {
			plat := w.fullPlatform()
			err = s.ForEach(ctx, len(full), func(k int) error {
				st, err := s.Evaluate(ctx, w.progs[k/2], plat, w.e.size, k%2 == 1)
				full[k] = st
				return err
			})
		}
	} else {
		w.mu.Lock()
		w.traced++
		w.mu.Unlock()
		cells, err = w.tracedFast(ctx, tr, parent, op, s)
		if err == nil {
			err = w.tracedFull(ctx, tr, parent, op, s, full)
		}
	}
	return func() { w.check(tr != nil, cells, full, err) }
}

func (w *timing) check(traced bool, cells []experiments.Table8Cell, full []pipeline.Stats, err error) {
	chk := w.e.chk
	n := len(w.progs) * len(w.plats)
	if err != nil {
		chk.ops(n+len(w.progs), err)
		return
	}
	if len(cells) != n {
		chk.ops(n+len(w.progs), fmt.Errorf("fast Table 8 has %d cells, want %d", len(cells), n))
		return
	}
	// Fast tier: the speedup must stay within the program's validated
	// budget of the full tier's golden speedup, the instruction
	// counts must be exact, and a traced rebuild must match the
	// program's own Table 8 cell for cell.
	for i, c := range cells {
		chk.op(w.checkFastCell(traced, i, c))
	}
	if !traced && w.ref == nil {
		w.ref = cells
	}
	// Full tier: cycle-exact against the golden Table 8.
	plat := w.fullPlatform().Name
	for i, p := range w.progs {
		k := p.Name + "/" + plat
		want, ok := w.e.gold.Table8[k]
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("%s: no golden Table 8 row", k)
		case full[2*i].Cycles != want.Orig || full[2*i+1].Cycles != want.Trans:
			err = fmt.Errorf("%s: full-tier cycles %d/%d, golden %d/%d",
				k, full[2*i].Cycles, full[2*i+1].Cycles, want.Orig, want.Trans)
		}
		chk.op(err)
	}
}

func (w *timing) checkFastCell(traced bool, i int, c experiments.Table8Cell) error {
	k := c.Program + "/" + c.Platform
	want, ok := w.e.gold.Table8[k]
	if !ok {
		return fmt.Errorf("%s: no golden Table 8 row", k)
	}
	tol, ok := validate.TolerancePP[c.Program]
	if !ok {
		return fmt.Errorf("%s: no fast-tier tolerance", c.Program)
	}
	errPP := math.Abs(100*c.Speedup - want.speedupPct())
	if errPP > tol {
		return fmt.Errorf("%s: fast speedup %.1f%% is %.1f pp from the full tier's %.1f%% (budget %.0f pp)",
			k, 100*c.Speedup, errPP, want.speedupPct(), tol)
	}
	if err := w.e.gold.checkInstructions(c.Program, c.Platform, false, c.StatsOrig.Instructions); err != nil {
		return err
	}
	if err := w.e.gold.checkInstructions(c.Program, c.Platform, true, c.StatsTrans.Instructions); err != nil {
		return err
	}
	if traced {
		w.mu.Lock()
		w.maxSpeedErr = max(w.maxSpeedErr, errPP)
		w.mu.Unlock()
		if w.ref != nil && (w.ref[i].StatsOrig != c.StatsOrig || w.ref[i].StatsTrans != c.StatsTrans) {
			return fmt.Errorf("%s: traced fast cell differs from experiments.Table8SessionFidelity", k)
		}
	}
	return nil
}

// tracedFast is the fast tier of experiments.Table8SessionFidelity
// rebuilt from public parts: platforms sharing compiler options share
// one sampled functional run per (program, variant), every platform's
// scoreboard riding it, and cells land in program-major order.
func (w *timing) tracedFast(ctx context.Context, tr *tracer, parent, op int, s *runner.Session) ([]experiments.Table8Cell, error) {
	type group struct {
		opts compiler.Options
		idx  []int
	}
	var groups []group
	for j, pl := range w.plats {
		found := false
		for g := range groups {
			if groups[g].opts == pl.EvalOptions() {
				groups[g].idx = append(groups[g].idx, j)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, group{opts: pl.EvalOptions(), idx: []int{j}})
		}
	}
	type unit struct {
		prog, group int
		transformed bool
	}
	var units []unit
	for i := range w.progs {
		for _, trans := range []bool{false, true} {
			for g := range groups {
				units = append(units, unit{prog: i, group: g, transformed: trans})
			}
		}
	}
	n := len(w.progs) * len(w.plats)
	orig := make([]pipeline.Stats, n)
	trans := make([]pipeline.Stats, n)
	err := s.ForEach(ctx, len(units), func(k int) error {
		u := units[k]
		g := groups[u.group]
		cfgs := make([]pipeline.Config, len(g.idx))
		for x, j := range g.idx {
			cfgs[x] = w.plats[j].Pipeline
			cfgs[x].Fidelity = pipeline.FidelityFast
		}
		sts, err := w.evaluateGroup(ctx, tr, parent, op, s, w.progs[u.prog], cfgs, g.opts, u.transformed)
		if err != nil {
			return err
		}
		for x, j := range g.idx {
			if u.transformed {
				trans[u.prog*len(w.plats)+j] = sts[x]
			} else {
				orig[u.prog*len(w.plats)+j] = sts[x]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cells := make([]experiments.Table8Cell, n)
	for i := range cells {
		so, st := orig[i], trans[i]
		cells[i] = experiments.Table8Cell{
			Program: w.progs[i/len(w.plats)].Name, Platform: w.plats[i%len(w.plats)].Name,
			CyclesOrig: so.Cycles, CyclesTrans: st.Cycles, StatsOrig: so, StatsTrans: st,
		}
		if st.Cycles > 0 {
			cells[i].Speedup = float64(so.Cycles)/float64(st.Cycles) - 1
		}
	}
	return cells, nil
}

// tracedFull runs the full-tier column through the traced
// runner.EvaluateGroup rebuild, one run per (program, variant).
func (w *timing) tracedFull(ctx context.Context, tr *tracer, parent, op int, s *runner.Session, full []pipeline.Stats) error {
	plat := w.fullPlatform()
	return s.ForEach(ctx, len(full), func(k int) error {
		sts, err := w.evaluateGroup(ctx, tr, parent, op, s, w.progs[k/2], []pipeline.Config{plat.Pipeline}, plat.EvalOptions(), k%2 == 1)
		if err == nil {
			full[k] = sts[0]
		}
		return err
	})
}

// evaluateGroup is runner.EvaluateGroup rebuilt from public parts, with
// every timing model behind an observer shim: one functional run
// feeding one model per config, sampled when every config is on the
// fast tier.
func (w *timing) evaluateGroup(ctx context.Context, tr *tracer, parent, op int, s *runner.Session, p *bio.Program, cfgs []pipeline.Config, opts compiler.Options, transformed bool) ([]pipeline.Stats, error) {
	us := tr.begin("bench.run", parent, op)
	defer tr.end(us)
	var prog *isa.Program
	err := tr.span("compiler.compile", us, op, func() (err error) {
		prog, err = s.Compile(p, transformed, opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	m, err := sim.New(prog)
	if err != nil {
		return nil, err
	}
	if err := p.Bind(m, w.e.size); err != nil {
		return nil, fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	allFast := true
	for _, c := range cfgs {
		allFast = allFast && c.Fidelity == pipeline.FidelityFast
	}
	exName := "sim.full_exec"
	if allFast {
		exName = "sim.sampled_exec"
	}
	ex := tr.begin(exName, us, op)
	type model interface {
		sim.BatchObserver
		Stats() pipeline.Stats
	}
	models := make([]model, len(cfgs))
	shims := make([]*timedObserver, len(cfgs))
	for i, c := range cfgs {
		if c.Fidelity == pipeline.FidelityFast {
			models[i] = scoreboard.NewModel(c)
			shims[i] = &timedObserver{inner: models[i], a: tr.agg("scoreboard.observe", ex, op)}
		} else {
			models[i] = pipeline.NewModel(c)
			shims[i] = &timedObserver{inner: models[i], a: tr.agg("pipeline.observe", ex, op)}
		}
		m.AddBatchObserver(shims[i])
	}
	if allFast {
		m.SetSampling(scoreboard.SampleObserve, scoreboard.SamplePeriod)
	}
	res, err := m.RunContext(ctx)
	for _, sh := range shims {
		sh.a.close()
	}
	tr.end(ex)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := p.Validate(res, w.e.size); err != nil {
		return nil, err
	}
	out := make([]pipeline.Stats, len(models))
	statsName := "pipeline.observe"
	if allFast {
		statsName = "scoreboard.observe"
	}
	err = tr.span(statsName, us, op, func() error {
		for i, md := range models {
			if sb, ok := md.(*scoreboard.Model); ok {
				sb.Finalize(res.Instructions)
			}
			out[i] = md.Stats()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.runs++
	if allFast {
		w.observed += shims[0].events
		w.fastInsts += res.Instructions
	} else {
		for _, sh := range shims {
			w.fullEvents += sh.events
		}
	}
	w.mu.Unlock()
	return out, nil
}

func (w *timing) layers(_ context.Context, self map[string]float64, m map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.traced == 0 {
		return
	}
	m["runner.functional_runs"] = float64(w.runs) / float64(w.traced)
	if w.fastInsts > 0 {
		m["scoreboard.observed_fraction"] = float64(w.observed) / float64(w.fastInsts)
	}
	if w.fullEvents > 0 {
		perPass := float64(w.fullEvents) / float64(w.traced)
		m["pipeline.observe_ns_per_event"] = self["pipeline.observe"] * 1e9 / perPass
	}
	m["scoreboard.max_speedup_err_pp"] = w.maxSpeedErr
}

func (w *timing) close() {}
