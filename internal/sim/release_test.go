package sim_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// TestReleasedMachineMatchesFresh pins the reuse contract of
// Machine.Release: after a classB run of a large program (hmmpfam: 880
// instructions, ~50 memory pages) is released into the pools, a run of
// a smaller program (predator, 366 instructions) on its pages and
// chunk-sink buffers streams the same chunks and returns the same
// Result as a machine whose sink was checked against a slab Builder,
// and every run gets a dictionary of its own. The test runs on one P,
// so a pool Get finds what the last Put left; it checks that the sink
// did reuse the released buffers, except under the race detector,
// which drops pool Puts at random.
func TestReleasedMachineMatchesFresh(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	big, err := bio.ByName("hmmpfam")
	if err != nil {
		t.Fatal(err)
	}
	small, err := bio.ByName("predator")
	if err != nil {
		t.Fatal(err)
	}
	m := bioMachine(t, small)
	want, err, wantLog := sinkRun(t, ctx, small.Name, m, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Release()

	prog, err := big.Compile(false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	if m, err = sim.New(prog); err != nil {
		t.Fatal(err)
	}
	if err := big.Bind(m, bio.SizeB); err != nil {
		t.Fatal(err)
	}
	var bigLog chunkLog
	m.SetChunkSink(4096, bigLog.emit)
	res, err := m.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Validate(res, bio.SizeB); err != nil {
		t.Fatal(err)
	}
	released := &sim.SinkKind(m)[0]
	m.Release()

	dicts := []*runstream.Dict{wantLog.dict, bigLog.dict}
	for i := range 2 {
		m := bioMachine(t, small)
		var log chunkLog
		m.SetChunkSink(4096, log.emit)
		if i == 0 && !raceEnabled && &sim.SinkKind(m)[0] != released {
			t.Fatal("the sink did not reuse the released machine's buffers")
		}
		got, err := m.RunContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d after release: result %+v, want %+v", i, got, want)
		}
		if log.chunks != wantLog.chunks || !bytes.Equal(log.sum(), wantLog.sum()) ||
			!reflect.DeepEqual(log.dict.Runs, wantLog.dict.Runs) {
			t.Errorf("run %d after release: chunk stream differs from a fresh machine's", i)
		}
		if slices.Contains(dicts, log.dict) {
			t.Errorf("run %d after release: shares a run dictionary with an earlier run", i)
		}
		dicts = append(dicts, log.dict)
	}
}
