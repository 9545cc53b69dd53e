package simpoint

import "fmt"

// Cluster is one phase: a group of intervals with similar BBVs, plus
// the single representative interval that is characterized exactly on
// the whole group's behalf.
type Cluster struct {
	// Rep is the representative's interval index.
	Rep int
	// Start, End bound the representative's event range.
	Start, End uint64
	// Weight is the number of member intervals; the representative's
	// counts are scaled by it during extrapolation.
	Weight uint64
	// Members lists every member interval index, in order.
	Members []int
}

// Plan is a complete sampling decision for one trace: the interval
// timeline, the chosen clustering, and the representative set.
type Plan struct {
	Config      Config
	TotalEvents uint64
	Intervals   []Interval
	// K is the chosen cluster count.
	K int
	// Assign maps interval index to its position in Clusters.
	Assign   []int
	Clusters []Cluster
}

// BuildPlan clusters the collected intervals and selects
// representatives. It returns a *DegradeError (never a panic) when the
// trace is too small to sample profitably: the caller falls back to
// exact characterization.
func BuildPlan(intervals []Interval, cfg Config) (*Plan, error) {
	cfg = cfg.WithDefaults()
	n := len(intervals)
	if n == 0 {
		return nil, &DegradeError{Reason: "trace has zero intervals"}
	}
	if n < DefaultMinIntervals {
		return nil, &DegradeError{Reason: fmt.Sprintf(
			"only %d interval(s), below the %d-interval minimum", n, DefaultMinIntervals)}
	}

	vecs := make([][]float64, n)
	for i := range intervals {
		vecs[i] = intervals[i].Vec
	}
	// cluster clamps k to the interval count, so a DefaultMaxK larger
	// than the trace can never produce empty clusters by construction.
	_, assign, cents := cluster(vecs, DefaultMaxK, DefaultSeed, DefaultBICFraction)

	p := &Plan{
		Config:      cfg,
		TotalEvents: intervals[n-1].End - intervals[0].Start,
		Intervals:   intervals,
		Assign:      make([]int, n),
	}
	// Group members per raw cluster ID, dropping any ID with no members
	// and renumbering densely.
	members := make(map[int][]int)
	for i, j := range assign {
		members[j] = append(members[j], i)
	}
	seen := make(map[int]int) // raw ID -> dense index
	for i, j := range assign {
		dense, ok := seen[j]
		if !ok {
			dense = len(p.Clusters)
			seen[j] = dense
			p.Clusters = append(p.Clusters, buildCluster(intervals, members[j], cents[j], cfg))
		}
		p.Assign[i] = dense
	}
	p.K = len(p.Clusters)
	return p, nil
}

// buildCluster picks the member nearest the centroid as the
// representative, preferring full-size intervals: a partial tail
// interval has too little context to stand in for full ones, so it
// only ever represents a cluster with no full members (typically
// itself).
func buildCluster(intervals []Interval, members []int, cent []float64, cfg Config) Cluster {
	rep, best := -1, 0.0
	for _, i := range members {
		if intervals[i].Events() != cfg.IntervalSize {
			continue
		}
		if d := dist2(intervals[i].Vec, cent); rep < 0 || d < best {
			rep, best = i, d
		}
	}
	if rep < 0 {
		for _, i := range members {
			if d := dist2(intervals[i].Vec, cent); rep < 0 || d < best {
				rep, best = i, d
			}
		}
	}
	return Cluster{
		Rep:     rep,
		Start:   intervals[rep].Start,
		End:     intervals[rep].End,
		Weight:  uint64(len(members)),
		Members: members,
	}
}
