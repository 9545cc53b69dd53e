package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// TestReplayAnalyzeShardedMatchesSequential is the shard-fidelity
// golden test: ReplayAnalyze with shards forced on (small chunks, many
// workers) must render a profile byte-identical to both the sequential
// replay and the live analysis — warm-up windows and the minSeq gate
// have to hide every shard boundary.
func TestReplayAnalyzeShardedMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"hmmsearch", "predator"} {
		p, err := bio.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := p.Compile(false, compiler.Default())
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Bind(m, bio.SizeTest); err != nil {
			t.Fatal(err)
		}
		live := loadchar.New(prog)
		m.AddBatchObserver(live)
		var buf bytes.Buffer
		// A tiny chunk size forces a multi-chunk trace at test size, so
		// jobs > 1 genuinely splits the index into shards.
		tw := trace.NewWriter(&buf, trace.Meta{Program: name, Size: "test", ChunkEvents: 4096}, prog)
		m.AddBatchObserver(tw)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		want := loadchar.RenderProfile(name, "test", live, 10)

		for _, jobs := range []int{1, 2, 4, 7} {
			ir, err := trace.NewIndexedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if jobs > 1 && ir.Chunks() < 2 {
				t.Fatalf("%s: trace has %d chunks, cannot force sharding", name, ir.Chunks())
			}
			a, err := ReplayAnalyze(ctx, prog, ir, jobs)
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", name, jobs, err)
			}
			if got := loadchar.RenderProfile(name, "test", a, 10); got != want {
				t.Errorf("%s jobs=%d: sharded replay profile differs from live:\n--- live ---\n%s\n--- sharded ---\n%s",
					name, jobs, want, got)
			}
		}
	}
}

// hmmsearchTestProfileSHA is the SHA-256 of hmmsearch's rendered
// test-size profile (6 hot loads), as pinned by the benchmark goldens.
const hmmsearchTestProfileSHA = "d16255df2299609ce139080414f6c8cc7e4c5ad6f4191f705ad5ce644988f421"

// TestReplayLegacyTraceServedCold stores each retired-format trace
// fixture under the current trace key: the replay tier must evict it
// rather than serve from it, and the characterization must come from a
// cold simulation with the golden profile.
func TestReplayLegacyTraceServedCold(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(p, false, compiler.Default())
	key := traceKey(fp, bio.SizeTest)
	for v := 1; v <= 3; v++ {
		legacy, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "legacy", fmt.Sprintf("v%d.trace", v)))
		if err != nil {
			t.Fatal(err)
		}
		st := openStore(t, t.TempDir())
		if err := st.PutBytes(key, legacy); err != nil {
			t.Fatal(err)
		}
		s := NewSessionWithStore(1, st)

		// The replay tier declines the request and evicts the entry.
		if _, err, done := s.replayCharacterize(ctx, p, bio.SizeTest, fp); done || err != nil {
			t.Fatalf("v%d: replay tier settled the request (err %v)", v, err)
		}
		if _, ok := st.GetBytes(key); ok {
			t.Fatalf("v%d: legacy trace still stored after the replay tier declined it", v)
		}

		// End to end: the request is served cold, with the golden profile.
		if err := st.PutBytes(key, legacy); err != nil {
			t.Fatal(err)
		}
		prof, err := s.Characterize(ctx, p, bio.SizeTest)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if st := s.Stats(); st.ColdChars != 1 || st.ReplayRuns != 0 || st.Runs != 1 {
			t.Fatalf("v%d: stats %+v, want one cold characterization and no replay", v, st)
		}
		if prof.Source != "cold" {
			t.Fatalf("v%d: served from %q, want cold", v, prof.Source)
		}
		sum := sha256.Sum256([]byte(loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof.Analysis, 6)))
		if got := hex.EncodeToString(sum[:]); got != hmmsearchTestProfileSHA {
			t.Fatalf("v%d: profile SHA-256 %s, want %s", v, got, hmmsearchTestProfileSHA)
		}
		// The cold run re-recorded the trace in the current format.
		data, ok := st.GetBytes(key)
		if !ok || bytes.Equal(data, legacy) {
			t.Fatalf("v%d: trace entry not replaced by the cold run", v)
		}
		if _, err := trace.NewIndexedReader(bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatalf("v%d: re-recorded trace: %v", v, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
