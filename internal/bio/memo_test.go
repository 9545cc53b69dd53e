package bio

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bioperfload/internal/compiler"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// write is one Binder call as a writeLog saw it.
type write struct {
	name string
	vals any
}

// writeLog is a Binder that logs a copy of every write it is handed.
type writeLog struct{ writes []write }

func (l *writeLog) WriteSymbol(name string, b []byte) error {
	l.writes = append(l.writes, write{name, slices.Clone(b)})
	return nil
}

func (l *writeLog) WriteSymbolInt64s(name string, vs []int64) error {
	l.writes = append(l.writes, write{name, slices.Clone(vs)})
	return nil
}

func (l *writeLog) WriteSymbolFloat64s(name string, vs []float64) error {
	l.writes = append(l.writes, write{name, slices.Clone(vs)})
	return nil
}

// memoTests numbers the programs the memo tests make up, so each test
// run meets an empty memo entry even under -count.
var memoTests atomic.Int32

// freshName returns a program name no earlier test run used.
func freshName(t *testing.T) string {
	return fmt.Sprintf("%s-%d", t.Name(), memoTests.Add(1))
}

// TestReplayedBindMatchesBind: for every program at test size, the
// writes the memo replays are exactly the writes a direct Bind makes,
// on the first (recording) replay and on a later one.
func TestReplayedBindMatchesBind(t *testing.T) {
	for _, p := range All() {
		var direct writeLog
		if err := p.Bind(&direct, SizeTest); err != nil {
			t.Fatal(err)
		}
		for i := range 2 {
			var replayed writeLog
			if err := p.memo(SizeTest).bind(p, SizeTest, &replayed); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replayed.writes, direct.writes) {
				t.Errorf("%s: replay %d differs from a direct Bind", p.Name, i)
			}
		}
	}
}

// TestRecordedBindIsACopy: the memo keeps its own copy of every write,
// so a Bind that reuses one buffer for two writes and keeps changing
// it after it returns changes nothing a later replay writes.
func TestRecordedBindIsACopy(t *testing.T) {
	ints, raw, fl := []int64{1, 2, 3}, []byte("xyz"), []float64{0.5}
	p := &Program{
		Name: freshName(t),
		Bind: func(m Binder, _ Size) error {
			if err := m.WriteSymbolInt64s("a", ints); err != nil {
				return err
			}
			ints[0] = 10
			if err := m.WriteSymbolInt64s("b", ints); err != nil {
				return err
			}
			if err := m.WriteSymbol("c", raw); err != nil {
				return err
			}
			return m.WriteSymbolFloat64s("d", fl)
		},
	}
	want := []write{
		{"a", []int64{1, 2, 3}},
		{"b", []int64{10, 2, 3}},
		{"c", []byte("xyz")},
		{"d", []float64{0.5}},
	}
	in := p.memo(SizeTest)
	var first writeLog
	if err := in.bind(p, SizeTest, &first); err != nil {
		t.Fatal(err)
	}
	ints[0], ints[2], raw[0], fl[0] = 99, 99, 'q', 9
	var replayed writeLog
	if err := in.bind(p, SizeTest, &replayed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed.writes, want) {
		t.Errorf("replayed %+v, want %+v", replayed.writes, want)
	}
}

// TestConcurrentFirstRunsAgree: many goroutines meeting an empty memo
// entry at once call Bind and Reference once between them and all
// replay the same writes and read the same reference.
func TestConcurrentFirstRunsAgree(t *testing.T) {
	var binds, refs atomic.Int32
	p := &Program{
		Name: freshName(t),
		Bind: func(m Binder, sz Size) error {
			binds.Add(1)
			return m.WriteSymbolFloat64s("x", []float64{float64(sz), 0.5})
		},
		Reference: func(sz Size) Expected {
			refs.Add(1)
			return Expected{Ints: []int64{int64(sz), 7}}
		},
	}
	const n = 8
	got := make([]writeLog, n)
	exp := make([]Expected, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := p.memo(SizeB)
			if err := in.bind(p, SizeB, &got[i]); err != nil {
				t.Error(err)
			}
			exp[i] = in.reference(p, SizeB)
		}()
	}
	wg.Wait()
	if binds.Load() != 1 || refs.Load() != 1 {
		t.Errorf("Bind ran %d times and Reference %d, want once each", binds.Load(), refs.Load())
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(got[i], got[0]) || !reflect.DeepEqual(exp[i], exp[0]) {
			t.Fatalf("run %d saw %+v / %+v, run 0 %+v / %+v", i, got[i], exp[i], got[0], exp[0])
		}
	}
}

// hmmsearchRun compiles hmmsearch and returns a function that runs it
// once at test size through Run, with a chunk sink attached that only
// counts chunks, as a timing run's models take them.
func hmmsearchRun(tb testing.TB) func() {
	tb.Helper()
	p := Hmmsearch()
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		var chunks int
		if _, err := p.Run(context.Background(), prog, SizeTest, func(m *sim.Machine) {
			m.SetChunkSink(1<<14, func(*runstream.Chunk) { chunks++ })
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRepeatedRunAllocations pins what a functional run allocates once
// its (program, size) inputs and reference are memoized and released
// machines have filled the pools: its own state only (the machine, the
// run dictionary and its map entries, the Result): about 5 KB, where a
// run that rebuilds its inputs, reference, pages and sink buffers
// allocates about 160 KB. The least of three
// runs is pinned, so a collection that empties the pools mid-test does
// not count; under the race detector, which drops pool Puts at random,
// the test is skipped.
func TestRepeatedRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random share of sync.Pool Puts, so pooled pages and buffers are reallocated at random")
	}
	const bound = 16 << 10
	run := hmmsearchRun(t)
	run()
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a repeated test-size hmmsearch run allocates %d bytes", least)
	if least >= bound {
		t.Errorf("a repeated test-size hmmsearch run allocates %d bytes, want under %d", least, bound)
	}
}

// BenchmarkProgramRun times one functional run of test-size hmmsearch
// through Run with a chunk sink attached, reporting what a run
// allocates once the memo and pools are warm.
func BenchmarkProgramRun(b *testing.B) {
	run := hmmsearchRun(b)
	run()
	b.ReportAllocs()
	for b.Loop() {
		run()
	}
}
