// Package workload generates the deterministic synthetic inputs that
// stand in for the BioPerf class-B/class-C datasets: random DNA and
// protein sequences with controllable composition, substitution score
// matrices, profile-HMM parameter sets, and phylogeny site patterns.
// Everything is seeded, so every run of every experiment sees
// identical data.
//
// The package holds no shared state: every generator takes an
// explicit *RNG, and each simulation binds its inputs from a freshly
// seeded generator. Concurrent same-seed generations are therefore
// byte-identical (TestConcurrentDeterminism), which is what lets the
// runner package fan simulations out across goroutines without
// perturbing any workload.
package workload

// RNG is a small splitmix64 generator: fast, deterministic, and
// independent of math/rand's evolution across Go releases.
type RNG struct{ state uint64 }

// NewRNG seeds a generator. Distinct seeds give independent streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed*0x9E3779B97F4A7C15 + 1} }

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// DNA alphabet used throughout (indices 0..3).
const DNAAlphabet = "ACGT"

// ProteinAlphabet is the 20 amino acids (indices 0..19).
const ProteinAlphabet = "ACDEFGHIKLMNPQRSTVWY"

// DNASeq generates a random DNA sequence of length n as residue
// indices 0..3.
func DNASeq(r *RNG, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(r.Intn(4))
	}
	return s
}

// ProteinSeq generates a random protein sequence of length n as
// residue indices 0..19, with a mildly non-uniform composition
// (hydrophobics slightly enriched, as in real proteins).
func ProteinSeq(r *RNG, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		// Two draws biased toward the first half of the alphabet.
		a := r.Intn(20)
		if r.Intn(4) == 0 {
			a = r.Intn(10)
		}
		s[i] = byte(a)
	}
	return s
}

// MutatedCopy returns a copy of seq where each residue mutates with
// probability pMut/1000 and short indels appear with probability
// pIndel/1000 per position. alphabet is the residue count.
func MutatedCopy(r *RNG, seq []byte, alphabet, pMut, pIndel int) []byte {
	out := make([]byte, 0, len(seq)+8)
	for _, c := range seq {
		roll := r.Intn(1000)
		switch {
		case roll < pIndel/2: // deletion
		case roll < pIndel: // insertion
			out = append(out, byte(r.Intn(alphabet)), c)
		case roll < pIndel+pMut:
			out = append(out, byte(r.Intn(alphabet)))
		default:
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}

// PlantMotif overwrites seq[pos:pos+len(motif)] with a noisy copy of
// motif (per-residue mutation probability pMut/1000).
func PlantMotif(r *RNG, seq, motif []byte, pos, alphabet, pMut int) {
	for i, c := range motif {
		if pos+i >= len(seq) {
			return
		}
		if r.Intn(1000) < pMut {
			c = byte(r.Intn(alphabet))
		}
		seq[pos+i] = c
	}
}

// SubstMatrix builds a symmetric integer substitution matrix over an
// n-letter alphabet: match scores around +matchHi, mismatches around
// mismatchLo, with deterministic jitter (a BLOSUM-flavored shape).
func SubstMatrix(r *RNG, n, matchHi, mismatchLo int) []int64 {
	m := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var v int64
			if i == j {
				v = int64(matchHi - r.Intn(3))
			} else {
				v = int64(mismatchLo + r.Intn(4) - 1)
			}
			m[i*n+j] = v
			m[j*n+i] = v
		}
	}
	return m
}

// HMM is an integer-scaled profile HMM in the style of HMMER2's Plan7
// (scores are log-odds scaled by 100).
type HMM struct {
	M int // model length
	// Transition scores, indexed 0..M-1.
	TPMM, TPMI, TPMD []int64
	TPIM, TPII       []int64
	TPDM, TPDD       []int64
	// Emission scores: Mat[k*A + residue], Ins[k*A + residue].
	Mat, Ins []int64
	A        int // alphabet size
	// BSC/ESC: begin/end transition scores per state.
	BSC, ESC []int64
}

// NewHMM builds a deterministic random profile HMM with a consensus
// sequence: match states strongly prefer the consensus residue.
func NewHMM(r *RNG, m, alphabet int) *HMM {
	h := &HMM{
		M: m, A: alphabet,
		TPMM: make([]int64, m), TPMI: make([]int64, m), TPMD: make([]int64, m),
		TPIM: make([]int64, m), TPII: make([]int64, m),
		TPDM: make([]int64, m), TPDD: make([]int64, m),
		Mat: make([]int64, m*alphabet), Ins: make([]int64, m*alphabet),
		BSC: make([]int64, m), ESC: make([]int64, m),
	}
	for k := 0; k < m; k++ {
		cons := r.Intn(alphabet)
		for a := 0; a < alphabet; a++ {
			if a == cons {
				h.Mat[k*alphabet+a] = int64(150 + r.Intn(100))
			} else {
				h.Mat[k*alphabet+a] = int64(-80 + r.Intn(60))
			}
			h.Ins[k*alphabet+a] = int64(-25 + r.Intn(20))
		}
		h.TPMM[k] = int64(-10 - r.Intn(10))
		h.TPMI[k] = int64(-300 - r.Intn(200))
		h.TPMD[k] = int64(-350 - r.Intn(200))
		h.TPIM[k] = int64(-100 - r.Intn(100))
		h.TPII[k] = int64(-150 - r.Intn(100))
		h.TPDM[k] = int64(-120 - r.Intn(100))
		h.TPDD[k] = int64(-250 - r.Intn(150))
		h.BSC[k] = int64(-400 - 2*k)
		h.ESC[k] = int64(-50 - r.Intn(30))
	}
	h.BSC[0] = -20
	return h
}

// Consensus emits a sequence sampled from the HMM's match states
// (the highest-scoring residue per state).
func (h *HMM) Consensus() []byte {
	out := make([]byte, h.M)
	for k := 0; k < h.M; k++ {
		best, besta := h.Mat[k*h.A], 0
		for a := 1; a < h.A; a++ {
			if h.Mat[k*h.A+a] > best {
				best, besta = h.Mat[k*h.A+a], a
			}
		}
		out[k] = byte(besta)
	}
	return out
}

// SitePatterns generates aligned DNA site patterns for ntaxa species:
// each site draws an ancestral state and mutates it down two clades.
// Returned as pattern-major: pat[site*ntaxa + taxon] in 0..3.
func SitePatterns(r *RNG, ntaxa, nsites int) []byte {
	out := make([]byte, ntaxa*nsites)
	for s := 0; s < nsites; s++ {
		root := byte(r.Intn(4))
		cladeA := mutate(r, root, 150)
		cladeB := mutate(r, root, 150)
		for t := 0; t < ntaxa; t++ {
			base := cladeA
			if t >= ntaxa/2 {
				base = cladeB
			}
			out[s*ntaxa+t] = mutate(r, base, 100)
		}
	}
	return out
}

func mutate(r *RNG, base byte, p int) byte {
	if r.Intn(1000) < p {
		return byte(r.Intn(4))
	}
	return base
}
