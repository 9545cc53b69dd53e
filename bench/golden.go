package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"bioperfload/internal/bio"
	"bioperfload/internal/loadchar"
)

// goldenFS holds the checked-in expected outputs, one file per input
// size. `go test -run TestGoldenUpdate -update` regenerates them.
//
//go:embed golden/*.json
var goldenFS embed.FS

// golden is one size's expected outputs: the SHA-256 of every
// program's rendered profile, the committed-instruction count of every
// timing run (program/platform/variant), and the full-tier Table 8
// (program/platform).
type golden struct {
	Size         string               `json:"size"`
	Profiles     map[string]string    `json:"profiles"`
	Instructions map[string]uint64    `json:"instructions"`
	Table8       map[string]table8Row `json:"table8"`
}

func goldenFile(sz bio.Size) string { return "golden/" + sz.String() + ".json" }

func loadGolden(sz bio.Size) (*golden, error) {
	data, err := goldenFS.ReadFile(goldenFile(sz))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile(sz), err)
	}
	return &g, nil
}

// profileHot is the hot-load count of every rendered profile the
// benchmark checks, the service's default.
const profileHot = 6

// profileHash is the SHA-256 of a program's rendered profile.
func profileHash(name string, sz bio.Size, a *loadchar.Analysis) string {
	return textHash(loadchar.RenderProfile(name, sz.String(), a, profileHot))
}

func textHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// checkProfile compares a program's profile with the golden hash.
func (g *golden) checkProfile(name string, sz bio.Size, a *loadchar.Analysis) error {
	if a == nil {
		return fmt.Errorf("%s: no analysis", name)
	}
	return g.checkReport(name, loadchar.RenderProfile(name, sz.String(), a, profileHot))
}

// checkReport compares rendered profile text with the golden hash.
func (g *golden) checkReport(name, report string) error {
	want, ok := g.Profiles[name]
	if !ok {
		return fmt.Errorf("%s: no golden profile", name)
	}
	if got := textHash(report); got != want {
		return fmt.Errorf("%s: profile sha256 %.12s, golden %.12s", name, got, want)
	}
	return nil
}

// variantName names a program variant in golden keys.
func variantName(transformed bool) string {
	if transformed {
		return "transformed"
	}
	return "original"
}

func runKey(program, platform string, transformed bool) string {
	return program + "/" + platform + "/" + variantName(transformed)
}

// checkInstructions compares a timing run's committed-instruction
// count with the golden count.
func (g *golden) checkInstructions(program, platform string, transformed bool, got uint64) error {
	k := runKey(program, platform, transformed)
	want, ok := g.Instructions[k]
	if !ok {
		return fmt.Errorf("%s: no golden instruction count", k)
	}
	if got != want {
		return fmt.Errorf("%s: %d instructions, golden %d", k, got, want)
	}
	return nil
}

// table8Row is one program × platform row of Table 8: full-tier cycles
// of the original and load-transformed code.
type table8Row struct {
	Orig  uint64 `json:"original"`
	Trans uint64 `json:"transformed"`
}

// speedupPct is the row's transformation speedup in percent.
func (r table8Row) speedupPct() float64 {
	return 100 * (float64(r.Orig)/float64(r.Trans) - 1)
}
