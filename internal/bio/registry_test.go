package bio

import (
	"strings"
	"testing"
)

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Size
	}{
		{"test", SizeTest},
		{"classB", SizeB},
		{"b", SizeB},
		{"B", SizeB},
		{"classC", SizeC},
		{"c", SizeC},
		{"C", SizeC},
	} {
		got, err := ParseSize(tc.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, s := range []Size{SizeTest, SizeB, SizeC} {
		got, err := ParseSize(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, in := range []string{"", "classb", "D"} {
		_, err := ParseSize(in)
		if err == nil {
			t.Errorf("ParseSize(%q) accepted", in)
			continue
		}
		if want := "unknown size"; !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSize(%q) error %q does not contain %q", in, err, want)
		}
	}
}
