package minic

import "testing"

// lexPrefix lexes src the way LexAll does but keeps the tokens before
// the first lexical error, which it also returns.
func lexPrefix(src string) ([]Token, error) {
	l := NewLexer("f.mc", src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return out, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

// FuzzParse feeds arbitrary bytes to Parse, which must return a file or
// an error and never panic. The parser's token window must stream
// exactly LexAll's tokens up to the first lexical error, and a source
// LexAll rejects must fail Parse with that same error, as when Parse
// lexed the whole file first.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		goodProgram,
		"int main() { return (int)(2.5 * 3) + (1); }",
		"int main() { return 0 }",
		"int main() { $ }",
		"int x; /* unterminated",
		"int main() { return 'x; }",
		"int main() { return 1e999; }",
		"int f(int *p, int q[]) { p[0] += q[1]--; return p[0] ? 1 : 2; }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse("f.mc", src)
		if (file == nil) == (err == nil) {
			t.Fatalf("Parse returned file %v and error %v", file, err)
		}
		want, lexErr := lexPrefix(src)
		if lexErr != nil && (err == nil || err.Error() != lexErr.Error()) {
			t.Fatalf("Parse error %v, LexAll error %v", err, lexErr)
		}

		p := newParser("f.mc", src)
		var got []Token
		for {
			tk := p.next()
			got = append(got, tk)
			if tk.Kind == EOF {
				break
			}
		}
		if p.err != nil {
			got = got[:len(got)-1] // the EOF that stands in for the error
			if lexErr == nil || p.err.Error() != lexErr.Error() {
				t.Fatalf("streamed lexer error %v, LexAll error %v", p.err, lexErr)
			}
		} else if lexErr != nil {
			t.Fatalf("stream ended cleanly, LexAll error %v", lexErr)
		}
		if len(got) != len(want) {
			t.Fatalf("streamed %d tokens, LexAll %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("token %d: streamed %+v, LexAll %+v", i, got[i], want[i])
			}
		}
	})
}
