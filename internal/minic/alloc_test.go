package minic_test

import (
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/minic"
)

// TestLexerAllocatesNothing pins the lexer's allocation count: Next
// over every BioPerf source, original and load-transformed, makes none
// (its operator tables are package-level, and identifiers are slices
// of the source).
func TestLexerAllocatesNothing(t *testing.T) {
	for _, p := range bio.All() {
		for _, tr := range []bool{false, true} {
			src := p.Source(tr)
			var toks int
			allocs := testing.AllocsPerRun(5, func() {
				l := minic.NewLexer(p.Name, src)
				toks = 0
				for {
					tk, err := l.Next()
					if err != nil {
						t.Fatal(err)
					}
					toks++
					if tk.Kind == minic.EOF {
						return
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s transformed=%v: %.0f allocations lexing %d tokens, want 0", p.Name, tr, allocs, toks)
			}
		}
	}
}
