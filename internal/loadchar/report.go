package loadchar

import (
	"cmp"
	"slices"
	"sort"

	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
)

// Mix is one Figure 1 / Table 1 row.
type Mix struct {
	Total        uint64
	Loads        uint64
	Stores       uint64
	CondBranches uint64
	Other        uint64
	FPFraction   float64 // of all instructions (Table 1)
	LoadPct      float64
	StorePct     float64
	BranchPct    float64
	OtherPct     float64
}

// Mix returns the instruction-mix report.
func (a *Analysis) Mix() Mix {
	a.sync()
	m := Mix{
		Total:        a.rep.Total,
		Loads:        a.rep.ClassCounts[isa.ClassLoad],
		Stores:       a.rep.ClassCounts[isa.ClassStore],
		CondBranches: a.rep.ClassCounts[isa.ClassCondBranch],
	}
	m.Other = m.Total - m.Loads - m.Stores - m.CondBranches
	if m.Total > 0 {
		t := float64(m.Total)
		m.FPFraction = float64(a.rep.FPCount) / t
		m.LoadPct = 100 * float64(m.Loads) / t
		m.StorePct = 100 * float64(m.Stores) / t
		m.BranchPct = 100 * float64(m.CondBranches) / t
		m.OtherPct = 100 * float64(m.Other) / t
	}
	return m
}

// TotalLoads returns the dynamic load count.
func (a *Analysis) TotalLoads() uint64 {
	a.sync()
	return a.rep.ClassCounts[isa.ClassLoad]
}

// Coverage returns the cumulative fraction of dynamic loads covered
// by the top-k static loads for every k (Figure 2): Coverage()[0] is
// the hottest load's share, and the curve is non-decreasing to 1.
func (a *Analysis) Coverage() []float64 {
	a.sync()
	var counts []uint64
	var total uint64
	for _, c := range a.rep.LoadCounts {
		if c == 0 {
			continue
		}
		counts = append(counts, c)
		total += c
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	out := make([]float64, len(counts))
	var cum uint64
	for i, c := range counts {
		cum += c
		out[i] = float64(cum) / float64(total)
	}
	return out
}

// CoverageAt returns the fraction of dynamic loads covered by the top
// n static loads. It sums the n largest counts (topLoads) rather than
// sorting every count, so it matches Coverage()[n-1] (clamped to the
// curve) at a fraction of the cost.
func (a *Analysis) CoverageAt(n int) float64 {
	a.sync()
	var total, cum uint64
	for _, c := range a.rep.LoadCounts {
		total += c
	}
	for _, e := range a.topLoads(n) {
		cum += e.count
	}
	if total == 0 {
		return 0
	}
	return float64(cum) / float64(total)
}

// loadCount is one executed static load and its dynamic count.
type loadCount struct {
	pc    int32
	count uint64
}

// byRank orders loads as HotLoads does: count descending, then PC
// ascending.
func byRank(x, y loadCount) int {
	return cmp.Or(cmp.Compare(y.count, x.count), cmp.Compare(x.pc, y.pc))
}

// topLoads returns the n highest-ranked executed static loads in rank
// order. It keeps only the best n seen so far, so over L static loads
// it holds n entries and mostly skips a load with one comparison,
// where sorting every load costs O(L log L).
func (a *Analysis) topLoads(n int) []loadCount {
	if n <= 0 {
		return nil
	}
	var top []loadCount
	for pc, c := range a.rep.LoadCounts {
		e := loadCount{int32(pc), c}
		if c == 0 || len(top) == n && byRank(e, top[n-1]) > 0 {
			continue
		}
		i, _ := slices.BinarySearchFunc(top, e, byRank)
		top = slices.Insert(top, i, e)
		if len(top) > n {
			top = top[:n]
		}
	}
	return top
}

// StaticLoadCount returns how many distinct static loads executed.
func (a *Analysis) StaticLoadCount() int {
	a.sync()
	n := 0
	for _, c := range a.rep.LoadCounts {
		if c != 0 {
			n++
		}
	}
	return n
}

// CacheReport returns the Table 2 row.
func (a *Analysis) CacheReport() cache.Report {
	a.sync()
	return cache.LoadReportOf(cache.PaperConfig().Lat, a.rep.L1Stats, a.rep.L2Stats)
}

// Sequences is one Table 4 row pair.
type Sequences struct {
	// LoadToBranchPct is the percentage of executed loads that feed
	// a conditional branch through a tight dependence chain (4a).
	LoadToBranchPct float64
	// FedBranchMispredictRate is the average misprediction rate of
	// those branches, weighted by dynamic execution (4a).
	FedBranchMispredictRate float64
	// LoadAfterHardBranchPct is the percentage of executed loads
	// with tight consumers appearing right after a branch whose
	// misprediction rate is at least 5% (4b).
	LoadAfterHardBranchPct float64
	// OverallMispredictRate is the program's total conditional
	// branch misprediction rate.
	OverallMispredictRate float64
}

// Sequences computes the Table 4 metrics.
func (a *Analysis) Sequences() Sequences {
	a.sync()
	var s Sequences
	totalLoads := a.rep.ClassCounts[isa.ClassLoad]
	if totalLoads == 0 {
		return s
	}
	var toBranch uint64
	var afterHard uint64
	for _, n := range a.rep.ToBranch {
		toBranch += n
	}
	for _, ab := range a.rep.AfterBranch {
		for brPC, n := range ab {
			if a.rep.Branches[brPC].HardToPredict(0.05, 16) {
				afterHard += n
			}
		}
	}
	// A load can feed several branches; clamp to the load count so
	// the metric stays a percentage of loads, like the paper's.
	if toBranch > totalLoads {
		toBranch = totalLoads
	}
	s.LoadToBranchPct = 100 * float64(toBranch) / float64(totalLoads)
	s.LoadAfterHardBranchPct = 100 * float64(afterHard) / float64(totalLoads)
	if a.rep.FedBranchExec > 0 {
		s.FedBranchMispredictRate = float64(a.rep.FedBranchMiss) / float64(a.rep.FedBranchExec)
	}
	s.OverallMispredictRate = a.rep.BranchTotal.MispredictRate()
	return s
}

// HotLoad is one Table 5 row: a frequently executed static load with
// its behaviour and source attribution.
type HotLoad struct {
	PC             int32
	Frequency      float64 // share of all dynamic loads
	L1MissRate     float64
	BranchMispred  float64 // misprediction rate of the branches it feeds
	FeedsBranchPct float64 // share of its executions that feed a branch
	Func           string
	File           string
	Line           int32
}

// HotLoads returns the n most frequently executed static loads with
// their profile, the paper's Table 5: count descending, ties by PC.
func (a *Analysis) HotLoads(n int) []HotLoad {
	a.sync()
	top := a.topLoads(n)
	total := a.rep.ClassCounts[isa.ClassLoad]
	out := make([]HotLoad, 0, len(top))
	for _, e := range top {
		h := HotLoad{PC: e.pc, Line: a.prog.Insts[e.pc].Pos.Line}
		if total > 0 {
			h.Frequency = float64(e.count) / float64(total)
		}
		if e.count > 0 {
			h.L1MissRate = float64(a.rep.L1Miss[e.pc]) / float64(e.count)
			h.FeedsBranchPct = 100 * float64(a.rep.ToBranch[e.pc]) / float64(e.count)
		}
		// Weighted misprediction rate of the branches this load feeds.
		var exec, mis float64
		for brPC, cnt := range a.rep.FedBranch[e.pc] {
			bs := a.rep.Branches[brPC]
			if bs.Executed == 0 {
				continue
			}
			exec += float64(cnt)
			mis += float64(cnt) * bs.MispredictRate()
		}
		if exec > 0 {
			h.BranchMispred = mis / exec
		}
		if f := a.prog.FuncAt(e.pc); f != nil {
			h.Func = f.Name
		}
		h.File = a.prog.FileName(a.prog.Insts[e.pc].Pos.File)
		out = append(out, h)
	}
	return out
}

// Candidate is a Section 3 optimization candidate: a frequently
// executed static load that leads to or follows a hard-to-predict
// branch and almost always hits in L1 (so the opportunity is hit
// latency, not misses).
type Candidate struct {
	HotLoad
	Reason string
}

// Candidates applies the paper's Section 3 selection: loads covering
// at least minFreq of dynamic loads whose fed branches mispredict at
// least minMispred of the time (or that follow such branches), with
// an L1 miss rate below maxMiss.
func (a *Analysis) Candidates(minFreq, minMispred, maxMiss float64) []Candidate {
	a.sync()
	var out []Candidate
	for _, h := range a.HotLoads(len(a.rep.LoadCounts)) {
		if h.Frequency < minFreq || h.L1MissRate > maxMiss {
			continue
		}
		switch {
		case h.BranchMispred >= minMispred && h.FeedsBranchPct > 10:
			out = append(out, Candidate{HotLoad: h, Reason: "load-to-branch with hard branch"})
		default:
			for brPC := range a.rep.AfterBranch[h.PC] {
				if a.rep.Branches[brPC].HardToPredict(minMispred, 16) {
					out = append(out, Candidate{HotLoad: h, Reason: "load after hard-to-predict branch"})
					break
				}
			}
		}
	}
	return out
}
