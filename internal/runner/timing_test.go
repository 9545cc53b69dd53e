package runner

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
)

func alphaJob(t *testing.T, prog string, fid pipeline.Fidelity) TimingJob {
	t.Helper()
	p, err := bio.ByName(prog)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := platform.ByName("alpha21264")
	if err != nil {
		t.Fatal(err)
	}
	plat = plat.WithFidelity(fid)
	return TimingJob{Program: p, Config: plat.Pipeline, Opts: plat.EvalOptions()}
}

// TestConcurrentEvaluateRunsOnce: N concurrent identical evaluations
// share one functional run; every other caller is a memo hit.
func TestConcurrentEvaluateRunsOnce(t *testing.T) {
	const n = 8
	s := NewSession(4)
	job := alphaJob(t, "hmmsearch", pipeline.FidelityFull)
	var wg sync.WaitGroup
	sts := make([]pipeline.Stats, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out []pipeline.Stats
			out, errs[i] = s.EvaluateAll(context.Background(), []TimingJob{job}, bio.SizeTest)
			if errs[i] == nil {
				sts[i] = out[0]
			}
		}(i)
	}
	wg.Wait()
	for i := range sts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if sts[i] != sts[0] {
			t.Errorf("caller %d got %+v, caller 0 %+v", i, sts[i], sts[0])
		}
	}
	if st := s.Stats(); st.Runs != 1 || st.EvaluateCold != 1 || st.EvaluateMemoHits != n-1 {
		t.Errorf("Runs=%d EvaluateCold=%d EvaluateMemoHits=%d, want 1/1/%d", st.Runs, st.EvaluateCold, st.EvaluateMemoHits, n-1)
	}
}

// TestCanceledEvaluateNotMemoized: a canceled leader leaves nothing in
// the memo, so the next call computes, and the one after that is a hit.
func TestCanceledEvaluateNotMemoized(t *testing.T) {
	s := NewSession(1)
	job := alphaJob(t, "hmmsearch", pipeline.FidelityFast)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.EvaluateAll(ctx, []TimingJob{job}, bio.SizeTest); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, ok := s.EvaluateMemoized(job, bio.SizeTest); ok {
		t.Fatal("canceled evaluation was memoized")
	}
	for i, want := range []string{"cold", "memo"} {
		ts, err := s.EvaluateTiers(context.Background(), []TimingJob{job}, bio.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		if ts[0].Source != want {
			t.Errorf("call %d after cancellation served from %q, want %q", i, ts[0].Source, want)
		}
	}
	if st := s.Stats(); st.Runs != 1 {
		t.Errorf("Runs = %d, want 1", st.Runs)
	}
}

// TestPredictorJobServedFromTiers: a job on a named ablation predictor is
// keyed like any other, so it is served memo → store → peer with the
// cold stats, and its key differs from the paper hybrid's.
func TestPredictorJobServedFromTiers(t *testing.T) {
	ctx := context.Background()
	job := alphaJob(t, "hmmsearch", pipeline.FidelityFast)
	job.Config.Predictor = "bimodal"
	if timingKey(job, bio.SizeTest).name == timingKey(alphaJob(t, "hmmsearch", pipeline.FidelityFast), bio.SizeTest).name {
		t.Fatal("the bimodal job shares the hybrid job's key")
	}
	serve := func(s *Session, want string) pipeline.Stats {
		t.Helper()
		ts, err := s.EvaluateTiers(ctx, []TimingJob{job}, bio.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		if ts[0].Source != want {
			t.Errorf("served from %q, want %q", ts[0].Source, want)
		}
		return ts[0].Stats
	}
	remoteA := newFakeRemote()
	stA := openStore(t, t.TempDir())
	defer stA.Close()
	sA := NewSessionWithStore(1, stA)
	sA.SetRemote(remoteA)
	cold := serve(sA, "cold")
	tiers := map[string]pipeline.Stats{
		"memo":  serve(sA, "memo"),
		"store": serve(NewSessionWithStore(1, stA), "store"),
	}
	remoteB := newFakeRemote()
	remoteB.artifacts = remoteA.replicated
	stB := openStore(t, t.TempDir())
	defer stB.Close()
	sB := NewSessionWithStore(1, stB)
	sB.SetRemote(remoteB)
	tiers["peer"] = serve(sB, "peer")
	for name, st := range tiers {
		if st != cold {
			t.Errorf("%s tier: %+v, cold %+v", name, st, cold)
		}
	}
	if st, ok := sA.EvaluateMemoized(job, bio.SizeTest); !ok || st != cold {
		t.Error("the bimodal job was not memoized")
	}
	if ss := sA.Stats(); ss.Runs != 1 || ss.EvaluateCold != 1 {
		t.Errorf("stats %+v, want one cold run", ss)
	}
}

// TestConfigHashCoversEveryField walks pipeline.Config: changing any
// field but Name must change the key hash (the Predictor name
// included), and every field must be a plain value, which %+v prints
// canonically. A field added to the config (or its cache geometry)
// that the hash missed fails here.
func TestConfigHashCoversEveryField(t *testing.T) {
	plat, err := platform.ByName("alpha21264")
	if err != nil {
		t.Fatal(err)
	}
	base := plat.Pipeline.Normalized()
	want := configHash(base)
	var leaves [][]int
	var walk func(typ reflect.Type, path []int)
	walk = func(typ reflect.Type, path []int) {
		for i := 0; i < typ.NumField(); i++ {
			p := append(append([]int(nil), path...), i)
			if typ.Field(i).Type.Kind() == reflect.Struct {
				walk(typ.Field(i).Type, p)
			} else {
				leaves = append(leaves, p)
			}
		}
	}
	walk(reflect.TypeOf(base), nil)
	for _, path := range leaves {
		cfg := base
		root := reflect.ValueOf(&cfg).Elem()
		f := root.FieldByIndex(path)
		name := fieldName(root.Type(), path)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Errorf("%s: a %s field does not print canonically", name, f.Kind())
			continue
		}
		got := configHash(cfg)
		switch {
		case name == "Name" && got != want:
			t.Error("Name changed the key hash; it is a label")
		case name != "Name" && got == want:
			t.Errorf("%s is not covered by the key hash", name)
		}
	}
}

func fieldName(typ reflect.Type, path []int) string {
	name := ""
	for _, i := range path {
		if name != "" {
			name += "."
		}
		name += typ.Field(i).Name
		typ = typ.Field(i).Type
	}
	return name
}

// TestEvalArtifactCoversStats: the artifact's ten words are every
// pipeline.Stats field, each in its own slot.
func TestEvalArtifactCoversStats(t *testing.T) {
	typ := reflect.TypeOf(pipeline.Stats{})
	if typ.NumField() != 10 {
		t.Fatalf("pipeline.Stats has %d fields; the artifact layout carries 10", typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Uint64 {
			t.Fatalf("pipeline.Stats.%s is %s, not a uint64 word", typ.Field(i).Name, typ.Field(i).Type)
		}
		var st pipeline.Stats
		reflect.ValueOf(&st).Elem().Field(i).SetUint(1)
		w := statsWords(st)
		if w[i] != 1 {
			t.Errorf("pipeline.Stats.%s is not word %d", typ.Field(i).Name, i)
		}
		var sum uint64
		for _, x := range w {
			sum += x
		}
		if sum != 1 {
			t.Errorf("pipeline.Stats.%s lands in more than one word", typ.Field(i).Name)
		}
	}
}

// TestTimingTiersMatchCold is the cross-tier identity: on all four
// platforms, both tiers and both variants at test size, the memo, the
// store and a peer return exactly the cold Stats.
func TestTimingTiersMatchCold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing grid")
	}
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []TimingJob
	for _, fid := range []pipeline.Fidelity{pipeline.FidelityFull, pipeline.FidelityFast} {
		for _, pl := range platform.All() {
			pl = pl.WithFidelity(fid)
			for _, tr := range []bool{false, true} {
				jobs = append(jobs, TimingJob{Program: p, Config: pl.Pipeline, Opts: pl.EvalOptions(), Transformed: tr})
			}
		}
	}
	serve := func(s *Session, want string) []Timing {
		t.Helper()
		ts, err := s.EvaluateTiers(ctx, jobs, bio.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		for i, tm := range ts {
			if tm.Source != want {
				t.Errorf("job %d served from %q, want %q", i, tm.Source, want)
			}
		}
		return ts
	}

	remoteA := newFakeRemote()
	stA := openStore(t, t.TempDir())
	defer stA.Close()
	sA := NewSessionWithStore(2, stA)
	sA.SetRemote(remoteA)
	cold := serve(sA, "cold")
	tiers := map[string][]Timing{"memo": serve(sA, "memo")}
	tiers["store"] = serve(NewSessionWithStore(2, stA), "store")

	remoteB := newFakeRemote()
	remoteB.artifacts = remoteA.replicated
	stB := openStore(t, t.TempDir())
	defer stB.Close()
	sB := NewSessionWithStore(2, stB)
	sB.SetRemote(remoteB)
	tiers["peer"] = serve(sB, "peer")
	// Peer artifacts were admitted to B's own store.
	tiers["admitted"] = serve(NewSessionWithStore(2, stB), "store")
	if st := sB.Stats(); st.Runs != 0 || st.Compiles != 0 {
		t.Errorf("peer-served session ran %d simulations and %d compiles", st.Runs, st.Compiles)
	}

	for name, ts := range tiers {
		for i := range jobs {
			if ts[i].Stats != cold[i].Stats {
				t.Errorf("%s tier, job %d (%s, transformed=%v): %+v, cold %+v",
					name, i, jobs[i].Config.Name, jobs[i].Transformed, ts[i].Stats, cold[i].Stats)
			}
		}
	}
}

// TestDamagedTimingArtifactRecomputed: a truncated entry, a flipped
// key bit and a flipped count bit in a store entry are each rejected,
// evicted and recomputed, and the rewritten entry decodes again.
func TestDamagedTimingArtifactRecomputed(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir())
	defer st.Close()
	job := alphaJob(t, "hmmsearch", pipeline.FidelityFull)
	k := timingKey(job, bio.SizeTest)
	want, err := NewSessionWithStore(1, st).EvaluateAll(ctx, []TimingJob{job}, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	good, ok := st.GetBytes(k.name)
	if !ok || !bytes.Equal(good, encodeEvalArtifact(k, want[0])) {
		t.Fatal("cold evaluation was not written through to the store")
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 1
		return b
	}
	for name, bad := range map[string][]byte{
		"truncated":   good[:len(good)-1],
		"key bit":     flip(8),
		"L1Hits bit":  flip(artifactHeaderLen + 6*8),
		"zero-length": {},
	} {
		if err := st.PutBytes(k.name, bad); err != nil {
			t.Fatal(err)
		}
		s := NewSessionWithStore(1, st)
		ts, err := s.EvaluateTiers(ctx, []TimingJob{job}, bio.SizeTest)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ts[0].Source != "cold" || ts[0].Stats != want[0] {
			t.Errorf("%s: served %+v from %q, want the cold stats recomputed", name, ts[0].Stats, ts[0].Source)
		}
		if got, ok := st.GetBytes(k.name); !ok || !bytes.Equal(got, good) {
			t.Errorf("%s: the damaged entry was not replaced", name)
		}
	}
}

// FuzzDecodeEvalArtifact: arbitrary bytes never panic the decoder and
// never make it allocate; whatever it accepts re-encodes to the same
// bytes.
func FuzzDecodeEvalArtifact(f *testing.F) {
	k := evalKey{name: "eval|fuzz"}
	k.sum[0] = 0x5a
	valid := encodeEvalArtifact(k, pipeline.Stats{
		Instructions: 1000, Cycles: 800, Loads: 300, Stores: 100, CondBranches: 120,
		Mispredicts: 20, L1Hits: 250, L2Hits: 40, MemHits: 10, LoadLatencySum: 1500,
	})
	f.Add(valid, false)
	f.Add(valid, true)
	f.Add(valid[:len(valid)-1], false)
	f.Add(append(append([]byte(nil), valid...), 0), false)
	f.Add([]byte(evalMagic), false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, fast bool) {
		k := k
		k.fast = fast
		st, err := decodeEvalArtifact(data, k)
		if allocs := testing.AllocsPerRun(1, func() { decodeEvalArtifact(data, k) }); allocs != 0 {
			t.Fatalf("decode allocated %v times on %d bytes", allocs, len(data))
		}
		if err != nil {
			return
		}
		if len(data) != evalArtifactLen {
			t.Fatalf("accepted %d bytes", len(data))
		}
		if !bytes.Equal(encodeEvalArtifact(k, st), data) {
			t.Fatal("accepted artifact does not re-encode to its bytes")
		}
	})
}
