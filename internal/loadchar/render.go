package loadchar

import (
	"fmt"
	"strings"
)

// RenderProfile renders one program's full characterization as the
// canonical human-readable profile text. Both `cmd/bioperf -profile`
// and the bioperfd service's characterize payload use this single
// renderer, so the two paths are byte-equivalent by construction —
// the service golden test pins that property.
func RenderProfile(name, size string, a *Analysis, hot int) string {
	return RenderRanked(name, size, a, a.Ranking(hot))
}

// Ranking is the part of a profile that ranks static loads: the
// hottest loads (HotLoads) and the top-80 coverage (CoverageAt(80)).
// Each selects from every executed static load, so a caller that
// reports them in more than one form computes them once.
type Ranking struct {
	Hot        []HotLoad
	Coverage80 float64
}

// Ranking returns the analysis's Ranking with hot hottest loads.
func (a *Analysis) Ranking(hot int) Ranking {
	return Ranking{Hot: a.HotLoads(hot), Coverage80: a.CoverageAt(80)}
}

// RenderRanked is RenderProfile over a Ranking already computed from
// a.
func RenderRanked(name, size string, a *Analysis, r Ranking) string {
	var b strings.Builder
	m := a.Mix()
	fmt.Fprintf(&b, "%s (%s inputs)\n", name, size)
	fmt.Fprintf(&b, "  instructions: %d\n", m.Total)
	fmt.Fprintf(&b, "  mix: %.1f%% loads, %.1f%% stores, %.1f%% cond branches, %.1f%% other (FP %.2f%%)\n",
		m.LoadPct, m.StorePct, m.BranchPct, m.OtherPct, 100*m.FPFraction)
	fmt.Fprintf(&b, "  static loads executed: %d, top-80 coverage %.1f%%\n",
		a.StaticLoadCount(), 100*r.Coverage80)
	c := a.CacheReport()
	fmt.Fprintf(&b, "  cache: L1 %.2f%%, L2 %.2f%%, overall %.3f%%, AMAT %.2f\n",
		100*c.L1Local, 100*c.L2Local, 100*c.Overall, c.AMAT)
	s := a.Sequences()
	fmt.Fprintf(&b, "  load-to-branch: %.1f%% of loads (fed-branch mispredict %.1f%%)\n",
		s.LoadToBranchPct, 100*s.FedBranchMispredictRate)
	fmt.Fprintf(&b, "  loads after hard branches: %.1f%%\n", s.LoadAfterHardBranchPct)
	fmt.Fprintf(&b, "  hottest loads:\n")
	for _, h := range r.Hot {
		fmt.Fprintf(&b, "    pc=%-6d freq=%5.2f%% L1miss=%5.2f%% brMispred=%5.2f%% %s:%d (%s)\n",
			h.PC, 100*h.Frequency, 100*h.L1MissRate, 100*h.BranchMispred,
			h.File, h.Line, h.Func)
	}
	return b.String()
}
