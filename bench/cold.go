package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"sync"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runner"
	"bioperfload/internal/sim"
	"bioperfload/internal/store"
	"bioperfload/internal/trace"
)

// cold is the path a first bioperfd request pays: each pass opens a
// fresh store and a fresh store-backed session and characterizes all
// nine programs — simulation, the live loadchar passes, trace encoding
// and store writes. It decodes no trace and runs no timing model. The
// seed is unused: the pass runs the paper's fixed program order, as
// cmd/experiments does.
type cold struct {
	e *env

	mu     sync.Mutex
	traced int    // traced passes run
	events uint64 // committed instructions of traced passes
	bytes  int64  // trace bytes written by traced passes
}

func newCold(e *env) workload { return &cold{e: e} }

// setup runs a test-size cold pass: it proves the path works and warms
// the process (code, heap) before the first timed pass.
func (w *cold) setup(ctx context.Context) error {
	dir, err := w.e.tempDir("cold-setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	defer st.Close()
	_, err = runner.NewSessionWithStore(w.e.jobs, st).CharacterizeAll(ctx, bio.SizeTest)
	return err
}

func (w *cold) pass(ctx context.Context, tr *tracer, parent, op int) func() {
	progs := bio.All()
	dir, err := w.e.tempDir("cold-")
	if err != nil {
		return func() { w.e.chk.ops(len(progs), err) }
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return func() { w.e.chk.ops(len(progs), err) }
	}
	s := runner.NewSessionWithStore(w.e.jobs, st)
	var analyses []*loadchar.Analysis
	if tr == nil {
		var profs []*runner.Profile
		profs, err = s.CharacterizeAll(ctx, w.e.size)
		for _, p := range profs {
			analyses = append(analyses, p.Analysis)
		}
	} else {
		w.mu.Lock()
		w.traced++
		w.mu.Unlock()
		analyses = make([]*loadchar.Analysis, len(progs))
		err = s.ForEach(ctx, len(progs), func(i int) error {
			a, err := w.characterize(ctx, tr, parent, op, s, st, progs[i])
			analyses[i] = a
			return err
		})
	}
	return func() {
		defer os.RemoveAll(dir)
		defer st.Close()
		if err != nil {
			w.e.chk.ops(len(progs), err)
			return
		}
		if tr == nil {
			// The untraced pass must have taken the cold path for every
			// program, not a store or cache tier.
			if n := s.Stats().ColdChars; n != uint64(len(progs)) {
				w.e.chk.assert(fmt.Errorf("cold pass: %d cold characterizations, want %d", n, len(progs)))
			}
		}
		for i, p := range progs {
			w.e.chk.op(w.e.gold.checkProfile(p.Name, w.e.size, analyses[i]))
		}
	}
}

// characterize is runner's cold characterization rebuilt from public
// parts, with each layer behind a timing shim: compile through the
// session (which persists the binary), a machine with the live
// analysis and a v4 trace writer streaming into a store entry, then
// the commit, the snapshot encode and the snapshot write.
func (w *cold) characterize(ctx context.Context, tr *tracer, parent, op int, s *runner.Session, st *store.Store, p *bio.Program) (*loadchar.Analysis, error) {
	ps := tr.begin("bench.program", parent, op)
	defer tr.end(ps)
	sz := w.e.size
	var prog *isa.Program
	err := tr.span("compiler.compile", ps, op, func() (err error) {
		prog, err = s.Compile(p, false, compiler.Default())
		return err
	})
	if err != nil {
		return nil, err
	}
	m, err := sim.New(prog)
	if err != nil {
		return nil, err
	}
	if err := p.Bind(m, sz); err != nil {
		return nil, fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	fp := runner.Fingerprint(p, false, compiler.Default())
	ew, err := st.Create("bench|trace|" + fp + "|" + sz.String())
	if err != nil {
		return nil, err
	}
	a := loadchar.New(prog)
	out := &timedWriter{w: ew}
	tw := trace.NewWriter(out, trace.Meta{Program: p.Name, Fingerprint: fp, Size: sz.String()}, prog)

	ex := tr.begin("sim.exec", ps, op)
	obs := &timedObserver{inner: a, a: tr.agg("loadchar.observe", ex, op)}
	enc := &timedObserver{inner: tw, a: tr.agg("trace.encode", ex, op)}
	out.a = tr.agg("store.write", enc.a.id, op)
	m.AddBatchObserver(obs)
	m.AddBatchObserver(enc)
	res, err := m.RunContext(ctx)
	obs.a.close()
	enc.a.close()
	out.a.close()
	tr.end(ex)
	if err != nil {
		ew.Abort()
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := p.Validate(res, sz); err != nil {
		ew.Abort()
		return nil, err
	}

	cl := tr.begin("trace.encode", ps, op)
	out.a = tr.agg("store.write", cl, op)
	err = tw.Close()
	out.a.close()
	tr.end(cl)
	if err == nil && tw.Events() != res.Instructions {
		err = fmt.Errorf("%s: trace recorded %d events, run committed %d", p.Name, tw.Events(), res.Instructions)
	}
	if err != nil {
		ew.Abort()
		return nil, err
	}
	if err := tr.span("store.write", ps, op, ew.Commit); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = tr.span("loadchar.snapshot", ps, op, func() error {
		return gob.NewEncoder(&buf).Encode(a.Snapshot())
	})
	if err != nil {
		return nil, err
	}
	err = tr.span("store.write", ps, op, func() error {
		return st.PutBytes("bench|prof|"+fp+"|"+sz.String(), buf.Bytes())
	})
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.events += res.Instructions
	w.bytes += out.n
	w.mu.Unlock()
	return a, nil
}

func (w *cold) layers(_ context.Context, self map[string]float64, m map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.traced == 0 || w.events == 0 {
		return
	}
	// The counters cover every traced pass; self times are per pass.
	ev := float64(w.events) / float64(w.traced)
	if s := self["sim.exec"]; s > 0 {
		m["sim.minst_per_s"] = ev / s / 1e6
	}
	m["loadchar.observe_ns_per_event"] = self["loadchar.observe"] * 1e9 / ev
	m["trace.bits_per_event"] = float64(w.bytes) * 8 / float64(w.events)
}

func (w *cold) close() {}
