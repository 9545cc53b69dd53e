package runner

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"bioperfload/internal/bio"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/scoreboard"
)

// timingSchema versions timing results as artifacts. Bump it whenever
// a change to the timing models moves any Stats word: the memo, store
// and peer tiers serve a result only under the schema it was computed
// with. TestTimingSchemaPinsTable8 ties each schema to the test-size
// Table 8 renders of both tiers, so changing cycles without a bump
// fails.
const timingSchema = 1

// Timing is one timing job's result and the tier that answered it:
// "memo" (the session already held it, or another caller was computing
// it), "store" (a persisted artifact), "peer" (a fleet peer's
// artifact), or "cold" (a functional run made by this call).
type Timing struct {
	Stats  pipeline.Stats
	Source string
}

// evalKey names one timing result: the compiled stream (Fingerprint),
// the input size and the machine (configHash).
type evalKey struct {
	name string   // store and memo key: eval|fingerprint|size|config hash
	sum  [32]byte // sha256 of name, carried in the artifact
	fast bool     // fast tier: counters are extrapolated one by one
}

// timingKey keys job at size sz.
func timingKey(job TimingJob, sz bio.Size) evalKey {
	fp := Fingerprint(job.Program, job.Transformed, job.Opts)
	name := "eval|" + fp + "|" + sz.String() + "|" + configHash(job.Config)
	return evalKey{
		name: name,
		sum:  sha256.Sum256([]byte(name)),
		fast: job.Config.Fidelity == pipeline.FidelityFast,
	}
}

// configHash is the canonical hash of everything in cfg that can move a
// timing result: every field of the normalized config except Name (a
// label), plus the timing schema and the fast tier's sampling window.
// %+v prints every field, nested cache geometry and the predictor name
// included, so a field added to pipeline.Config joins the hash with no
// edit here; TestConfigHashCoversEveryField keeps it so.
func configHash(cfg pipeline.Config) string {
	cfg = cfg.Normalized()
	cfg.Name = ""
	h := sha256.New()
	fmt.Fprintf(h, "timing=%d observe=%d period=%d config=%+v",
		timingSchema, scoreboard.SampleObserve, scoreboard.SamplePeriod, cfg)
	return hex.EncodeToString(h.Sum(nil))
}

// The timing artifact is one fixed-length record: the artifact header
// (magic "BPTM", layout version 1, sha256 of the evalKey name), then
// the ten pipeline.Stats words in declaration order, little-endian.
const (
	evalMagic       = "BPTM"
	evalVersion     = 1
	evalArtifactLen = artifactHeaderLen + 10*8
)

func statsWords(st pipeline.Stats) [10]uint64 {
	return [10]uint64{st.Instructions, st.Cycles, st.Loads, st.Stores, st.CondBranches,
		st.Mispredicts, st.L1Hits, st.L2Hits, st.MemHits, st.LoadLatencySum}
}

func encodeEvalArtifact(k evalKey, st pipeline.Stats) []byte {
	b := appendArtifactHeader(make([]byte, 0, evalArtifactLen), evalMagic, evalVersion, k.sum)
	for _, w := range statsWords(st) {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// Timing artifact rejections besides the header's. They are static so
// that decoding never allocates, whatever the bytes.
var (
	errEvalLength = errors.New("timing artifact: wrong length")
	errEvalCounts = errors.New("timing artifact: inconsistent counts")
)

// decodeEvalArtifact decodes and checks a timing artifact against the
// key it must answer. It reads nothing past the fixed length and
// rejects any other length, a foreign key, and counts no timing run
// can produce.
func decodeEvalArtifact(data []byte, k evalKey) (pipeline.Stats, error) {
	if len(data) != evalArtifactLen {
		return pipeline.Stats{}, errEvalLength
	}
	body, err := artifactBody(data, evalMagic, evalVersion, k.sum)
	if err != nil {
		return pipeline.Stats{}, err
	}
	var w [10]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	st := pipeline.Stats{Instructions: w[0], Cycles: w[1], Loads: w[2], Stores: w[3], CondBranches: w[4],
		Mispredicts: w[5], L1Hits: w[6], L2Hits: w[7], MemHits: w[8], LoadLatencySum: w[9]}
	if !consistent(st, k.fast) {
		return pipeline.Stats{}, errEvalCounts
	}
	return st, nil
}

// consistent reports whether st holds counts a timing run can produce:
// every load hits one cache level, no more mispredicts than branches,
// no more loads and stores than instructions. The full tier's counters
// add up exactly. The fast tier rounds each extrapolated counter on
// its own (scoreboard.Model.Stats), so its sums may miss by the
// rounding of their terms.
func consistent(st pipeline.Stats, fast bool) bool {
	var slack uint64
	if fast {
		slack = 2
	}
	hits, c1 := bits.Add64(st.L1Hits, st.L2Hits, 0)
	hits, c2 := bits.Add64(hits, st.MemHits, 0)
	mem, c3 := bits.Add64(st.Loads, st.Stores, 0)
	return c1|c2|c3 == 0 &&
		absDiff(hits, st.Loads) <= slack &&
		st.Mispredicts <= st.CondBranches &&
		(mem <= st.Instructions || mem-st.Instructions <= slack)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// EvaluateTiers is the session's one timing entry point; EvaluateAll is
// EvaluateTiers without the sources. Each job takes the first tier that
// answers:
//
//   - memo: the session's result table (memo). Concurrent callers of
//     one key share one computation.
//   - store: a persisted artifact, if the session has a store.
//   - peer: a fleet peer's artifact, verified, then admitted to the
//     local store.
//   - cold: the jobs still missing form stream groups and run as one
//     functional simulation per group. Fresh results are written
//     through to the store and replicated.
//
// Failures, cancellation included, are never memoized.
func (s *Session) EvaluateTiers(ctx context.Context, jobs []TimingJob, sz bio.Size) ([]Timing, error) {
	out := make([]Timing, len(jobs))
	keys := make([]evalKey, len(jobs))
	entries := make([]*memoEntry[pipeline.Stats], len(jobs))
	todo := make([]int, len(jobs))
	for i, j := range jobs {
		keys[i] = timingKey(j, sz)
		todo[i] = i
	}
	for len(todo) > 0 {
		// Claim every key this round is first to ask for; the rest
		// follow an entry someone else (or an earlier job here)
		// computes.
		var lead, follow []int
		for _, i := range todo {
			var first bool
			if entries[i], first = s.evals.claim(keys[i].name); first {
				lead = append(lead, i)
			} else {
				follow = append(follow, i)
			}
		}

		// Leaders settle every entry they claimed before waiting on any
		// other, so callers that follow each other cannot deadlock.
		if s.store != nil {
			// Lookups only: a canceled call leaves the rest to the cold
			// path, which reports the cancellation.
			_ = s.ForEach(ctx, len(lead), func(x int) error {
				i := lead[x]
				if st, src, ok := s.loadTiming(ctx, keys[i]); ok {
					out[i] = Timing{Stats: st, Source: src}
					s.evals.settle(keys[i].name, entries[i], st, nil)
				}
				return nil
			})
		}
		var cold []int
		for _, i := range lead {
			if out[i].Source == "" {
				cold = append(cold, i)
			}
		}
		if err := s.evaluateCold(ctx, jobs, cold, keys, entries, sz, out); err != nil {
			return nil, err
		}

		// Followers whose leader was canceled while ctx is live go
		// round again.
		todo = todo[:0]
		for _, i := range follow {
			st, err, retry := s.evals.wait(ctx, entries[i])
			switch {
			case retry:
				todo = append(todo, i)
			case err == nil:
				out[i] = Timing{Stats: st, Source: "memo"}
			case err == ctx.Err():
				return nil, fmt.Errorf("%s: %w", jobs[i].Program.Name, err)
			default:
				return nil, err
			}
		}
	}
	return out, nil
}

// evaluateCold runs the jobs at idx as stream groups, one functional
// simulation per group, and settles the memo entries they lead: fresh
// results are memoized, written through to the store and replicated;
// on failure every entry leaves the memo. The groups share one
// modelFreeList, which lives for this call.
func (s *Session) evaluateCold(ctx context.Context, jobs []TimingJob, idx []int, keys []evalKey, entries []*memoEntry[pipeline.Stats], sz bio.Size, out []Timing) error {
	if len(idx) == 0 {
		return nil
	}
	sub := make([]TimingJob, len(idx))
	for x, i := range idx {
		sub[x] = jobs[i]
	}
	groups := groupJobs(sub)
	sts := make([]pipeline.Stats, len(sub))
	free := &modelFreeList{s: s, free: make(map[string][]*scoreboard.Model)}
	err := s.ForEach(ctx, len(groups), func(g int) error {
		return s.evaluateGroup(ctx, sub, groups[g], sz, sts, free)
	})
	for x, i := range idx {
		s.evals.settle(keys[i].name, entries[i], sts[x], err)
		if err != nil {
			continue
		}
		out[i] = Timing{Stats: sts[x], Source: "cold"}
		s.putArtifact(keys[i].name, encodeEvalArtifact(keys[i], sts[x]))
	}
	if err != nil {
		return err
	}
	s.evalColds.Add(uint64(len(idx)))
	return nil
}

// EvaluateMemoized returns job's stats at size sz if the session's memo
// already holds them. It never waits, reads the store or runs anything:
// bioperfd answers such a job even when its queue is full.
func (s *Session) EvaluateMemoized(job TimingJob, sz bio.Size) (pipeline.Stats, bool) {
	return s.evals.peek(timingKey(job, sz).name)
}

// loadTiming serves a timing result from the store, then from a fleet
// peer, through the artifact ladder (loadLocal, loadPeer).
func (s *Session) loadTiming(ctx context.Context, k evalKey) (pipeline.Stats, string, bool) {
	var st pipeline.Stats
	accept := func(data []byte) error {
		var err error
		st, err = decodeEvalArtifact(data, k)
		return err
	}
	if s.loadLocal(k.name, accept) {
		s.evalStoreHits.Add(1)
		return st, "store", true
	}
	if s.loadPeer(ctx, k.name, accept) {
		s.evalPeerHits.Add(1)
		return st, "peer", true
	}
	return pipeline.Stats{}, "", false
}

// modelFreeList holds the timing models of one evaluateCold call that
// no group is using, by configHash. A group takes one model per job,
// reset to NewModel's state, and gives them all back when its run ends,
// so a call builds at most (workers) x (distinct configs) models however
// many groups it runs; Table 8's 48 fast cells run on at most
// jobs x 4. A model is rebound to each group's program (Bind). The list
// dies with the call: nothing outlives it, and no other call shares it.
type modelFreeList struct {
	s    *Session
	mu   sync.Mutex
	free map[string][]*scoreboard.Model
}

// get returns a model for cfg, whose configHash is key: a reset free
// one, or a new one when none is free.
func (f *modelFreeList) get(key string, cfg pipeline.Config) *scoreboard.Model {
	f.mu.Lock()
	ms := f.free[key]
	if n := len(ms); n > 0 {
		m := ms[n-1]
		f.free[key] = ms[:n-1]
		f.mu.Unlock()
		m.Reset()
		return m
	}
	f.mu.Unlock()
	f.s.modelsBuilt.Add(1)
	return scoreboard.NewModel(cfg)
}

// put gives models back, keys[i] being models[i]'s configHash.
func (f *modelFreeList) put(keys []string, models []*scoreboard.Model) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, m := range models {
		f.free[keys[i]] = append(f.free[keys[i]], m)
	}
}
