package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"bioperfload/internal/isa"
)

// sumProgram builds: sum = 0; for i = n-1; i >= 0; i-- sum += i; print sum.
func sumProgram(n int64) *isa.Program {
	b := isa.NewBuilder("sum")
	b.Ldiq(1, 0)   // r1 = sum
	b.Ldiq(2, n-1) // r2 = i
	b.Label("loop")
	b.Branch(isa.OpBlt, 2, "done")
	b.Op3(isa.OpAdd, 1, 1, 2)
	b.OpI(isa.OpSub, 2, 2, 1)
	b.Branch(isa.OpBr, 0, "loop")
	b.Label("done")
	b.Print(1)
	b.Halt()
	return b.MustProgram()
}

func TestSumLoop(t *testing.T) {
	m, err := New(sumProgram(100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IntOutput) != 1 || res.IntOutput[0] != 4950 {
		t.Fatalf("output = %v, want [4950]", res.IntOutput)
	}
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
		want int64
	}{
		{isa.OpAdd, 3, 4, 7},
		{isa.OpSub, 3, 4, -1},
		{isa.OpMul, -3, 4, -12},
		{isa.OpDiv, 7, 2, 3},
		{isa.OpDiv, -7, 2, -3},
		{isa.OpRem, 7, 2, 1},
		{isa.OpRem, -7, 2, -1},
		{isa.OpAnd, 0b1100, 0b1010, 0b1000},
		{isa.OpOr, 0b1100, 0b1010, 0b1110},
		{isa.OpXor, 0b1100, 0b1010, 0b0110},
		{isa.OpSll, 1, 10, 1024},
		{isa.OpSrl, -8, 1, int64(uint64(0xFFFFFFFFFFFFFFF8) >> 1)},
		{isa.OpSra, -8, 1, -4},
		{isa.OpCmpEq, 5, 5, 1},
		{isa.OpCmpEq, 5, 6, 0},
		{isa.OpCmpLt, -1, 0, 1},
		{isa.OpCmpLt, 0, 0, 0},
		{isa.OpCmpLe, 0, 0, 1},
		{isa.OpCmpUlt, -1, 0, 0}, // unsigned: 0xFFFF... not < 0
		{isa.OpCmpUlt, 0, -1, 1},
	}
	for _, c := range cases {
		b := isa.NewBuilder("alu")
		b.Ldiq(1, c.a)
		b.Ldiq(2, c.b)
		b.Op3(c.op, 3, 1, 2)
		b.Print(3)
		b.Halt()
		m, err := New(b.MustProgram())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s(%d,%d): %v", c.op, c.a, c.b, err)
		}
		if res.IntOutput[0] != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, res.IntOutput[0], c.want)
		}
	}
}

func TestImmediateForms(t *testing.T) {
	b := isa.NewBuilder("imm")
	b.Ldiq(1, 10)
	b.OpI(isa.OpAdd, 2, 1, 5)
	b.OpI(isa.OpMul, 3, 2, -2)
	b.OpI(isa.OpCmpLt, 4, 3, 0)
	b.Print(2)
	b.Print(3)
	b.Print(4)
	b.Halt()
	m, _ := New(b.MustProgram())
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{15, -30, 1}
	for i, w := range want {
		if res.IntOutput[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, res.IntOutput[i], w)
		}
	}
}

func TestZeroRegister(t *testing.T) {
	b := isa.NewBuilder("zero")
	b.Ldiq(isa.RZero, 42) // discarded
	b.OpI(isa.OpAdd, 1, isa.RZero, 7)
	b.Print(1)
	b.Print(isa.RZero)
	b.Halt()
	m, _ := New(b.MustProgram())
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IntOutput[0] != 7 || res.IntOutput[1] != 0 {
		t.Errorf("zero register not hard-wired: %v", res.IntOutput)
	}
}

func TestMemoryOps(t *testing.T) {
	b := isa.NewBuilder("mem")
	addr := b.Global("buf", 64, 8, false)
	b.Ldiq(1, int64(addr))
	b.Ldiq(2, 1234)
	b.Store(isa.OpStq, 2, 1, 8)
	b.Load(isa.OpLdq, 3, 1, 8)
	b.Print(3)
	b.Ldiq(4, 0x1FF) // STB truncates to low byte
	b.Store(isa.OpStb, 4, 1, 0)
	b.Load(isa.OpLdbu, 5, 1, 0)
	b.Print(5)
	b.Halt()
	m, _ := New(b.MustProgram())
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IntOutput[0] != 1234 || res.IntOutput[1] != 0xFF {
		t.Errorf("memory ops: %v", res.IntOutput)
	}
}

func TestFloatOps(t *testing.T) {
	b := isa.NewBuilder("fp")
	b.Ldiq(1, 7)
	b.Emit(isa.Inst{Op: isa.OpCvtQT, Rd: 1, Ra: 1}) // f1 = 7.0
	b.Ldiq(2, 2)
	b.Emit(isa.Inst{Op: isa.OpCvtQT, Rd: 2, Ra: 2}) // f2 = 2.0
	b.Emit(isa.Inst{Op: isa.OpDivt, Rd: 3, Ra: 1, Rb: 2})
	b.Emit(isa.Inst{Op: isa.OpPrintF, Ra: 3})
	b.Emit(isa.Inst{Op: isa.OpCmpTlt, Rd: 4, Ra: 2, Rb: 1}) // 2.0 < 7.0
	b.Print(4)
	b.Emit(isa.Inst{Op: isa.OpCvtTQ, Rd: 5, Ra: 3}) // int64(3.5) = 3
	b.Print(5)
	b.Emit(isa.Inst{Op: isa.OpFNeg, Rd: 6, Ra: 3})
	b.Emit(isa.Inst{Op: isa.OpPrintF, Ra: 6})
	b.Halt()
	m, _ := New(b.MustProgram())
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FPOutput[0] != 3.5 || res.FPOutput[1] != -3.5 {
		t.Errorf("fp output = %v", res.FPOutput)
	}
	if res.IntOutput[0] != 1 || res.IntOutput[1] != 3 {
		t.Errorf("int output = %v", res.IntOutput)
	}
}

func TestCmovs(t *testing.T) {
	// r3 = max(r1, r2) via cmov.
	check := func(a, b, want int64) {
		bb := isa.NewBuilder("cmov")
		bb.Ldiq(1, a)
		bb.Ldiq(2, b)
		bb.Op3(isa.OpAdd, 3, 1, isa.RZero) // r3 = a
		bb.Op3(isa.OpSub, 4, 2, 1)         // r4 = b - a
		bb.Op3(isa.OpCmovGt, 3, 4, 2)      // if r4 > 0: r3 = b
		bb.Print(3)
		bb.Halt()
		m, _ := New(bb.MustProgram())
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.IntOutput[0] != want {
			t.Errorf("max(%d,%d) = %d, want %d", a, b, res.IntOutput[0], want)
		}
	}
	check(3, 9, 9)
	check(9, 3, 9)
	check(5, 5, 5)
	check(-4, -2, -2)
}

func TestCallReturn(t *testing.T) {
	// main: r16=21; jsr double; print r0; halt. double: r0 = r16*2; ret.
	b := isa.NewBuilder("call")
	b.Ldiq(isa.RegA0, 21)
	b.Jsr(isa.RegRA, "double")
	b.Print(0)
	b.Halt()
	b.Label("double")
	b.OpI(isa.OpMul, 0, isa.RegA0, 2)
	b.Ret(isa.RegRA)
	m, _ := New(b.MustProgram())
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IntOutput[0] != 42 {
		t.Errorf("call result = %d", res.IntOutput[0])
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	b := isa.NewBuilder("trap")
	b.Ldiq(1, 1)
	b.Op3(isa.OpDiv, 2, 1, isa.RZero)
	b.Halt()
	m, _ := New(b.MustProgram())
	_, err := m.Run()
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("want Trap, got %v", err)
	}
}

func TestFuelExhaustion(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("loop")
	b.Branch(isa.OpBr, 0, "loop")
	b.Halt()
	m, _ := New(b.MustProgram())
	m.Fuel = 1000
	res, err := m.Run()
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("want fuel exhaustion, got %v", err)
	}
	if res.Instructions != 1000 {
		t.Errorf("executed %d, want 1000", res.Instructions)
	}
}

// batchFunc adapts a function to the BatchObserver interface.
type batchFunc func(evs []Event)

func (f batchFunc) ObserveBatch(evs []Event) { f(evs) }

// eachEvent adapts a per-event callback to a BatchObserver.
func eachEvent(f func(ev *Event)) batchFunc {
	return func(evs []Event) {
		for i := range evs {
			f(&evs[i])
		}
	}
}

func TestObserverStream(t *testing.T) {
	m, _ := New(sumProgram(10))
	var loads, stores, branches, taken, total uint64
	m.AddBatchObserver(eachEvent(func(ev *Event) {
		total++
		switch isa.ClassOf(ev.Inst.Op) {
		case isa.ClassLoad:
			loads++
		case isa.ClassStore:
			stores++
		case isa.ClassCondBranch:
			branches++
			if ev.Taken {
				taken++
			}
		}
	}))
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if total != res.Instructions {
		t.Errorf("observer saw %d, result says %d", total, res.Instructions)
	}
	// Loop body runs 10 times, BLT checked 11 times, taken once.
	if branches != 11 || taken != 1 {
		t.Errorf("branches = %d taken = %d, want 11/1", branches, taken)
	}
	if loads != 0 || stores != 0 {
		t.Errorf("unexpected memory ops: %d loads %d stores", loads, stores)
	}
}

func TestObserverSequencing(t *testing.T) {
	m, _ := New(sumProgram(5))
	var last uint64
	var first = true
	m.AddBatchObserver(eachEvent(func(ev *Event) {
		if !first && ev.Seq != last+1 {
			t.Fatalf("seq jumped %d -> %d", last, ev.Seq)
		}
		last = ev.Seq
		first = false
	}))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestObserverEffectiveAddress(t *testing.T) {
	b := isa.NewBuilder("ea")
	addr := b.Global("g", 32, 8, false)
	b.Ldiq(1, int64(addr))
	b.Store(isa.OpStq, 1, 1, 16)
	b.Load(isa.OpLdq, 2, 1, 16)
	b.Halt()
	m, _ := New(b.MustProgram())
	var got []uint64
	m.AddBatchObserver(eachEvent(func(ev *Event) {
		if isa.MemWidth(ev.Inst.Op) > 0 {
			got = append(got, ev.Addr)
		}
	}))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := addr + 16
	if len(got) != 2 || got[0] != want || got[1] != want {
		t.Errorf("EAs = %#v, want two of %#x", got, want)
	}
}

func TestWriteSymbol(t *testing.T) {
	b := isa.NewBuilder("sym")
	addr := b.Global("input", 16, 8, false)
	b.Ldiq(1, int64(addr))
	b.Load(isa.OpLdq, 2, 1, 0)
	b.Load(isa.OpLdq, 3, 1, 8)
	b.Print(2)
	b.Print(3)
	b.Halt()
	m, _ := New(b.MustProgram())
	if err := m.WriteSymbolInt64s("input", []int64{-5, 77}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IntOutput[0] != -5 || res.IntOutput[1] != 77 {
		t.Errorf("symbol injection: %v", res.IntOutput)
	}
	if err := m.WriteSymbolInt64s("input", make([]int64, 3)); err == nil {
		t.Error("overflow write not rejected")
	}
	if err := m.WriteSymbol("nope", nil); err == nil {
		t.Error("missing symbol not rejected")
	}
}

func TestHaltDeliversEvent(t *testing.T) {
	b := isa.NewBuilder("h")
	b.Halt()
	m, _ := New(b.MustProgram())
	saw := false
	m.AddBatchObserver(eachEvent(func(ev *Event) {
		if ev.Inst.Op == isa.OpHalt {
			saw = true
		}
	}))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !saw {
		t.Error("HALT not observed")
	}
}

// countBatches is a native BatchObserver that tallies events and
// batch sizes.
type countBatches struct {
	events  uint64
	batches int
	maxLen  int
}

func (c *countBatches) ObserveBatch(evs []Event) {
	c.batches++
	c.events += uint64(len(evs))
	if len(evs) > c.maxLen {
		c.maxLen = len(evs)
	}
}

// TestBatchObserverEquivalence: a native BatchObserver and a
// per-event callback attached to the same run see the same event
// stream, and both see every retired instruction. sumProgram(4000)
// retires ~16k instructions, so delivery spans multiple slabs.
func TestBatchObserverEquivalence(t *testing.T) {
	m, _ := New(sumProgram(4000))
	batch := &countBatches{}
	var perEvent uint64
	m.AddBatchObserver(batch)
	m.AddBatchObserver(eachEvent(func(ev *Event) { perEvent++ }))
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if batch.events != res.Instructions {
		t.Errorf("batch observer saw %d events, result says %d", batch.events, res.Instructions)
	}
	if perEvent != res.Instructions {
		t.Errorf("per-event callback saw %d events, result says %d", perEvent, res.Instructions)
	}
	if batch.batches < 2 {
		t.Errorf("expected multiple batches for %d instructions, got %d", res.Instructions, batch.batches)
	}
	if batch.maxLen > BatchSize {
		t.Errorf("batch of %d events exceeds BatchSize %d", batch.maxLen, BatchSize)
	}
}

// TestBatchSeqContinuity: Seq numbers are contiguous within and
// across batch boundaries.
func TestBatchSeqContinuity(t *testing.T) {
	m, _ := New(sumProgram(3000))
	var last uint64
	m.AddBatchObserver(batchFunc(func(evs []Event) {
		for i := range evs {
			if last != 0 && evs[i].Seq != last+1 {
				t.Fatalf("seq jumped %d -> %d", last, evs[i].Seq)
			}
			last = evs[i].Seq
		}
	}))
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if last != res.Instructions-1 {
		t.Errorf("final seq %d, want %d (Seq starts at 0)", last, res.Instructions-1)
	}
}

// TestBatchFlushOnError: the partial slab is flushed before an
// erroring run returns, so observers still see every retired
// instruction on the trap and fuel-exhaustion paths.
func TestBatchFlushOnError(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("loop")
	b.Branch(isa.OpBr, 0, "loop")
	b.Halt()
	m, _ := New(b.MustProgram())
	m.Fuel = BatchSize + 37 // lands mid-slab
	batch := &countBatches{}
	m.AddBatchObserver(batch)
	res, err := m.Run()
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("want fuel exhaustion, got %v", err)
	}
	if batch.events != res.Instructions {
		t.Errorf("batch observer saw %d events, result says %d", batch.events, res.Instructions)
	}
}

// TestBatchSlabRecycling pins the Event reuse contract: the slice
// handed to ObserveBatch is recycled once the callback returns, so an
// observer that retains it sees the data overwritten by later
// batches. Observers must copy what they keep.
func TestBatchSlabRecycling(t *testing.T) {
	m, _ := New(sumProgram(4000))
	var retained []Event
	var firstSeq uint64
	m.AddBatchObserver(batchFunc(func(evs []Event) {
		if retained == nil {
			retained = evs // MISUSE: retaining the slab past the callback
			firstSeq = evs[0].Seq
		}
	}))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if retained == nil {
		t.Fatal("no batches delivered")
	}
	if retained[0].Seq == firstSeq {
		t.Error("retained slab still holds first-batch data; recycling contract not exercised")
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	p := sumProgram(int64(b.N))
	m, _ := New(p)
	m.Fuel = uint64(b.N)*4 + 16
	b.ResetTimer()
	if _, err := m.Run(); err != nil && !errors.Is(err, ErrFuelExhausted) {
		b.Fatal(err)
	}
}

// TestRunContextCancel: a canceled context stops an unbounded run
// promptly (within CancelCheckInterval instructions) with an error
// wrapping context.Canceled, and the committed-instruction prefix is
// still delivered to observers.
func TestRunContextCancel(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("loop")
	b.Branch(isa.OpBr, 0, "loop")
	b.Halt()
	m, _ := New(b.MustProgram())
	var observed uint64
	m.AddBatchObserver(batchFunc(func(evs []Event) {
		observed += uint64(len(evs))
	}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := m.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Instructions > CancelCheckInterval {
		t.Errorf("ran %d instructions after cancellation, want <= %d",
			res.Instructions, CancelCheckInterval)
	}
	if observed != res.Instructions {
		t.Errorf("observers saw %d of %d committed instructions", observed, res.Instructions)
	}
}

// TestRunContextDeadline: an already-expired deadline behaves like the
// cancel path and reports context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("loop")
	b.Branch(isa.OpBr, 0, "loop")
	b.Halt()
	m, _ := New(b.MustProgram())
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := m.RunContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestRunContextCompletesNormally: a live context does not disturb a
// normal run.
func TestRunContextCompletesNormally(t *testing.T) {
	m, _ := New(sumProgram(100))
	res, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IntOutput) != 1 || res.IntOutput[0] != 4950 {
		t.Fatalf("output = %v, want [4950]", res.IntOutput)
	}
}
