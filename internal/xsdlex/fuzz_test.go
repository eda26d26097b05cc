package xsdlex

import (
	"bsoap/internal/dragon"
	"math"
	"testing"
)

// FuzzUnescape asserts entity resolution never panics, and that any
// successfully unescaped string re-escapes to something that resolves
// back to itself.
func FuzzUnescape(f *testing.F) {
	for _, s := range []string{"", "&amp;", "&#65;", "&#x41;", "a&lt;b", "&bogus;", "&", "&;", "&#xFFFFFFFFFF;"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out, err := UnescapeText(s)
		if err != nil {
			return
		}
		re, err := UnescapeText(string(EscapeText(nil, out)))
		if err != nil || re != out {
			t.Fatalf("escape/unescape unstable: %q -> %q (%v)", out, re, err)
		}
	})
}

// FuzzParseDouble is a differential target: for every input ParseDouble
// must return the bits strconv.ParseFloat returns for the trimmed input,
// or fail exactly when strconv fails. The XSD special names keep their
// own spelling; any accepted value must also re-encode to a form
// ParseDouble accepts again.
func FuzzParseDouble(f *testing.F) {
	for _, s := range []string{"0", "-1.5", "INF", "-INF", "NaN", "1e309", "..", "1E+21",
		".5", "5.", "1_000", "0x1p3", "inf", "0.1234567890123456", "12345678901234567890",
		"9007199254740993", "1e-22", "1e23", " 2.5\n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParseDouble(t, s)
		v, err := ParseDouble(s)
		if err != nil {
			return
		}
		if _, err := ParseDouble(string(AppendDouble(nil, v))); err != nil {
			t.Fatalf("canonical form of %q rejected: %v", s, err)
		}
	})
}

// FuzzAppendDouble is a differential target over raw bit patterns: for
// every finite double the encoder's output must equal strconv's shortest
// 'G' byte for byte, and the exact big-integer printer's.
func FuzzAppendDouble(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e23, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 9007199254740993, 123456789} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		checkAppendDouble(t, v)
		if got, want := AppendDouble(nil, v), dragon.AppendShortest(nil, v); string(got) != string(want) {
			t.Fatalf("AppendDouble(%#016x) = %q, dragon = %q", b, got, want)
		}
	})
}
