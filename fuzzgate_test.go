package bioperfload

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzSmokeCoversEveryFuzzer keeps `make fuzz-smoke` complete: every
// `func Fuzz…` under internal/ must have a recipe line in that rule
// that fuzzes it by its exact name in its own package. A fuzzer missing
// from the rule still runs its seeds under `go test`, but never gets a
// fuzzing budget in CI.
func TestFuzzSmokeCoversEveryFuzzer(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rule := fuzzSmokeRecipe(t, string(mk))

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found++
			want := "$(GO) test " + pkg + " -run '^$$' -fuzz '^" + m[1] + "$$'"
			if !strings.Contains(rule, want) {
				t.Errorf("%s: %s is not in make fuzz-smoke (want a recipe line with %q)", path, m[1], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no Fuzz functions found under internal/")
	}
}

// fuzzSmokeRecipe returns the recipe lines of the Makefile's fuzz-smoke
// rule: the tab-indented lines after its target line.
func fuzzSmokeRecipe(t *testing.T, mk string) string {
	t.Helper()
	_, after, ok := strings.Cut(mk, "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke rule")
	}
	var b strings.Builder
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}
