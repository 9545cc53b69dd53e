package trace_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// firstEvents forwards only the first n committed events of a run.
type firstEvents struct {
	bo sim.BatchObserver
	n  int
}

func (p *firstEvents) ObserveBatch(evs []sim.Event) {
	if len(evs) > p.n {
		evs = evs[:p.n]
	}
	p.n -= len(evs)
	if len(evs) > 0 {
		p.bo.ObserveBatch(evs)
	}
}

// FuzzIndexedReader feeds arbitrary bytes to the reader as a whole
// file, then reads every chunk through Range, Columns, and
// ScanRunTokens against a test-size hmmsearch binary. Every path must
// return an error or decode cleanly, never panic. The three paths
// share their validation, so whatever Range accepts Columns must
// accept, and whatever Columns accepts the token scan must accept; on
// a clean decode all of them must agree on the event count and the PC
// sequence.
func FuzzIndexedReader(f *testing.F) {
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		f.Fatal(err)
	}
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: the first 1024 events of a test-size run as a current
	// trace, and the same prefix in each retired format.
	m, err := sim.New(prog)
	if err != nil {
		f.Fatal(err)
	}
	if err := p.Bind(m, bio.SizeTest); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: p.Name, Size: "test", ChunkEvents: 256}, prog)
	m.AddBatchObserver(&firstEvents{bo: tw, n: 1024})
	if _, err := m.Run(); err != nil {
		f.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for v := 1; v <= 3; v++ {
		data, err := os.ReadFile(filepath.Join("testdata", "legacy", fmt.Sprintf("v%d.trace", v)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ir, err := trace.NewIndexedReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		ctx := context.Background()
		n := ir.Chunks()

		var rangePCs []int32
		src := ir.Range(prog, 0, n)
		rangeErr := func() error {
			defer src.Close()
			for {
				evs, release, err := src.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				for i := range evs {
					rangePCs = append(rangePCs, evs[i].PC)
				}
				release()
			}
		}()

		var colPCs []int32
		csrc := ir.Columns(ctx, prog, 0, n, 2)
		colErr := func() error {
			defer csrc.Close()
			for {
				ch, release, err := csrc.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				for _, tk := range ch.Tokens {
					r := ch.Dict.Runs[tk.ID]
					for rep := int32(0); rep < tk.Rep; rep++ {
						for i := int32(0); i < r.N; i++ {
							colPCs = append(colPCs, r.PC+i)
						}
					}
				}
				release()
			}
		}()

		var scanPCs []int32
		scanErr := ir.ScanRunTokens(ctx, prog, 0, n, func(pc, rn int32, rep int64) {
			for ; rep > 0; rep-- {
				for i := int32(0); i < rn; i++ {
					scanPCs = append(scanPCs, pc+i)
				}
			}
		})

		if rangeErr == nil && colErr != nil {
			t.Fatalf("Range accepted a trace Columns rejects: %v", colErr)
		}
		if colErr == nil && scanErr != nil {
			t.Fatalf("Columns accepted a trace ScanRunTokens rejects: %v", scanErr)
		}
		if colErr == nil {
			if uint64(len(colPCs)) != ir.TotalEvents() {
				t.Fatalf("Columns decoded %d events, footer records %d", len(colPCs), ir.TotalEvents())
			}
			if !slices.Equal(colPCs, scanPCs) {
				t.Fatal("Columns and ScanRunTokens disagree on the PC sequence")
			}
		}
		if rangeErr == nil && !slices.Equal(rangePCs, colPCs) {
			t.Fatalf("Range and Columns disagree: %d vs %d events or a differing PC", len(rangePCs), len(colPCs))
		}
	})
}
