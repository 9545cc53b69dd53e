package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/experiments"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
)

var update = flag.Bool("update", false, "regenerate golden/*.json from the current code")

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartiles pins the cut points to Python's
// statistics.quantiles(xs, n=4), the rule the spread of repeated runs
// is judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 2, 5}, [3]float64{1.25, 2.5, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5.5, 1.25, 3.0, 9.0, 2.0}, [3]float64{1.625, 3.0, 7.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestTail pins the percentile rule: the highest candidate percentile
// with at least ten samples beyond it.
func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{15, 50, 8},      // too few samples for any candidate: the median
		{20, 50, 10},     // p50 leaves exactly ten beyond
		{999, 90, 900},   // p99 would leave nine
		{1000, 99, 990},  // p99 leaves exactly ten
		{3000, 99, 2970}, // p99.9 would leave three
		{20000, 99.9, 19980},
	} {
		pct, val := tail(seq(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("tail(1..%d) = p%v %v, want p%v %v", c.n, pct, val, c.pct, c.val)
		}
	}
}

// TestSelfTimeOverlap: two workers run children of one pass at the
// same time; the pass's self time subtracts their union, each child
// keeps its own self time, and the pass splits into layers, glue and
// idle worker time that add up to jobs × wall.
func TestSelfTimeOverlap(t *testing.T) {
	spans := []span{
		{Name: "bench.pass", ID: 1, Start: 0, End: 100},
		{Name: "sim.exec", ID: 2, Parent: 1, Start: 0, End: 60},  // worker 1
		{Name: "sim.exec", ID: 3, Parent: 1, Start: 10, End: 80}, // worker 2
		{Name: "loadchar.observe", ID: 4, Parent: 2, Start: 5, End: 50, Busy: 20, Calls: 3},
		{Name: "store.write", ID: 5, Parent: 3, Start: 20, End: 30},
	}
	want := map[int]int64{1: 20, 2: 40, 3: 60, 4: 20, 5: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
	for i := range spans {
		spans[i].Start *= 1e9
		spans[i].End *= 1e9
		spans[i].Busy *= 1e9
	}
	p := passLayers(spans, 2)
	if len(p) != 1 {
		t.Fatalf("%d passes, want 1", len(p))
	}
	layers := map[string]float64{"sim.exec": 100, "loadchar.observe": 20, "store.write": 10}
	for k, v := range layers {
		if p[0].self[k] != v {
			t.Errorf("layer %s = %v, want %v", k, p[0].self[k], v)
		}
	}
	if p[0].wall != 100 || p[0].idle != 50 || p[0].unattributedPct != 10 {
		t.Errorf("wall %v idle %v unattributed %v%%, want 100, 50, 10%%", p[0].wall, p[0].idle, p[0].unattributedPct)
	}
}

// TestBenchmarkJSON: the metrics the benchmark prints are exactly the
// ones BENCHMARK.json declares, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, specs []metricSpec, declared []struct{ Name, Unit string }) {
		if len(specs) != len(declared) {
			t.Errorf("%s: %d metrics printed, %d declared", what, len(specs), len(declared))
			return
		}
		for i, s := range specs {
			if d := declared[i]; d.Name != s.name || d.Unit != s.unit {
				t.Errorf("%s %d: printed %s [%s], declared %s [%s]", what, i, s.name, s.unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}

// onPath names, per workload, per-layer metrics its traced run must
// measure as nonzero.
var onPath = map[string][]string{
	"cold": {"compiler.compile_s", "sim.exec_s", "sim.minst_per_s", "loadchar.observe_s", "trace.encode_s",
		"trace.bits_per_event", "loadchar.snapshot_s", "store.write_s"},
	"warm": {"trace.open_s", "trace.decode_ns_per_event", "trace.decode_wait_s", "loadchar.analyze_runs_s",
		"loadchar.replay_workers", "simpoint.collect_s", "simpoint.plan_s", "runner.interval_replay_s",
		"simpoint.replayed_fraction"},
	"timing": {"compiler.compile_s", "runner.functional_runs", "sim.sampled_exec_s", "scoreboard.observe_s",
		"scoreboard.observed_fraction", "sim.full_exec_s", "pipeline.observe_s", "pipeline.observe_ns_per_event"},
	"serve": {"service.request_s", "service.requests", "service.req_p50_ms", "service.req_tail_ms",
		"service.job_ms.characterize", "service.job_ms.evaluate", "service.serve_source.snapshot",
		"runner.snapshot_load_ms", "loadchar.render_ms", "runner.evaluate_fast_ms", "runner.evaluate_full_ms"},
}

// TestWorkloadsSmoke runs every workload at test size and checks that
// the outputs pass every correctness check and the result lines carry
// every declared metric.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"cold", "warm", "timing", "serve"} {
		t.Run(name, func(t *testing.T) {
			// A traced run interleaves untraced passes, so it covers both
			// pass paths; one untraced run covers the end-to-end record.
			modes := []bool{true}
			if name == "cold" {
				modes = append(modes, false)
			}
			for _, traced := range modes {
				e, err := newEnv(bio.SizeTest, benchJobs(), 7, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				rec, spans, err := measure(ctx, e, options{workload: name, seed: 7, trace: traced})
				if err != nil {
					t.Fatal(err)
				}
				if rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d failed: %v", traced, rec.Failed, rec.Attempted, rec.Errors)
				}
				if traced {
					if len(spans) == 0 {
						t.Error("traced run recorded no spans")
					}
					for _, m := range onPath[name] {
						if v := rec.Metrics[m].Value; !(v > 0) {
							t.Errorf("%s = %v, want > 0", m, v)
						}
					}
				}
				var out bytes.Buffer
				if err := emit(&out, rec); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                       `json:"correct"`
					Attempted int                        `json:"attempted"`
					Failed    int                        `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if !res.Correct || len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: correct=%v with %d metrics, want true with %d", traced, res.Correct, len(res.Metrics), len(want))
				}
			}
		})
	}
}

// TestGoldenUpdate regenerates golden/*.json at both sizes: the
// rendered-profile hash of every program, the committed-instruction
// count of every timing run, and the full-tier Table 8. It runs only
// with -update.
func TestGoldenUpdate(t *testing.T) {
	if !*update {
		t.Skip("regenerates the goldens; run with -update")
	}
	ctx := context.Background()
	for _, sz := range []bio.Size{bio.SizeTest, bio.SizeB} {
		g := golden{Size: sz.String(), Profiles: make(map[string]string),
			Instructions: make(map[string]uint64), Table8: make(map[string]table8Row)}
		s := runner.NewSession(benchJobs())
		profs, err := s.CharacterizeAll(ctx, sz)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range profs {
			g.Profiles[p.Name] = profileHash(p.Name, sz, p.Analysis)
		}
		progs, plats := bio.Transformed(), platform.All()
		var mu sync.Mutex
		err = s.ForEach(ctx, 2*len(progs)*len(plats), func(k int) error {
			p, pl, trans := progs[k/(2*len(plats))], plats[(k/2)%len(plats)], k%2 == 1
			st, err := s.Evaluate(ctx, p, pl.WithFidelity(pipeline.FidelityFast), sz, trans)
			mu.Lock()
			g.Instructions[runKey(p.Name, pl.Name, trans)] = st.Instructions
			mu.Unlock()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		cells, err := experiments.Table8SessionFidelity(ctx, s, sz, pipeline.FidelityFull)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			g.Table8[c.Program+"/"+c.Platform] = table8Row{Orig: c.CyclesOrig, Trans: c.CyclesTrans}
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile(sz), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
