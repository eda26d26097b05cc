// Package xsdlex implements the XSD lexical forms used on the SOAP wire:
// encoding and parsing of xsd:int, xsd:double, xsd:string and xsd:boolean
// values, the maximum serialized widths the paper's stuffing technique
// relies on, and the XML character-data escaping rules.
//
// The width constants are load-bearing for the reproduction: the paper's
// worst-case shifting experiments grow a double from its smallest lexical
// form (1 character, e.g. "5") to its largest (24 characters, e.g.
// "-1.7976931348623157E+308"), and an MIO — a struct of two ints and a
// double — from 3 to 46 characters (11+11+24).
package xsdlex

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Maximum number of characters any value of the given XSD type can occupy
// in the lexical form produced by this package. Strings have no bound
// (the paper notes strings cannot take advantage of stuffing).
const (
	// MaxIntWidth is len("-2147483648"): xsd:int is a 32-bit integer.
	MaxIntWidth = 11
	// MaxLongWidth is len("-9223372036854775808") for xsd:long.
	MaxLongWidth = 20
	// MaxDoubleWidth is len("-1.7976931348623157E+308"), the longest
	// shortest-round-trip representation of an IEEE 754 binary64.
	MaxDoubleWidth = 24
	// MaxBoolWidth is len("false").
	MaxBoolWidth = 5
	// MinIntWidth, MinDoubleWidth are the smallest possible lexical forms
	// ("0" .. "9"), used by the shifting experiments.
	MinIntWidth    = 1
	MinDoubleWidth = 1
)

// AppendInt appends the canonical lexical form of a 32-bit integer to dst.
// The result is at most MaxIntWidth bytes.
func AppendInt(dst []byte, v int32) []byte {
	return strconv.AppendInt(dst, int64(v), 10)
}

// AppendLong appends the canonical lexical form of a 64-bit integer to dst.
func AppendLong(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// AppendDouble appends the shortest lexical form of v that parses back to
// exactly v, using the XSD double style (decimal or exponent notation with
// an upper-case E), byte for byte what strconv's shortest 'G' format
// gives. Special values use the XSD lexical names INF, -INF and NaN. The
// result is at most MaxDoubleWidth bytes.
func AppendDouble(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, "INF"...)
	case math.IsInf(v, -1):
		return append(dst, "-INF"...)
	case math.IsNaN(v):
		return append(dst, "NaN"...)
	}
	return appendShortest(dst, v)
}

// AppendBool appends "true" or "false".
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// IntLen reports the exact encoded length of v without allocating.
func IntLen(v int32) int {
	n := 1
	u := uint64(v)
	if v < 0 {
		n++
		u = uint64(-int64(v))
	}
	for u >= 10 {
		u /= 10
		n++
	}
	return n
}

// DoubleLen reports the exact encoded length of v. It is used by the
// differential engine to decide whether a dirty value still fits its field
// width before touching the template bytes. It encodes into a stack buffer,
// which escape analysis keeps off the heap.
func DoubleLen(v float64) int {
	var buf [MaxDoubleWidth]byte
	return len(AppendDouble(buf[:0], v))
}

// ParseInt parses the lexical form of an xsd:int, accepting surrounding
// XML whitespace (the collapse facet).
//
// The Parse functions never retain s: an error quotes a copy. So s does
// not escape, and a caller's string(b) conversion of a short []byte
// argument stays on the stack — the differential decoder's warm path
// parses re-lexed values without allocating.
func ParseInt(s string) (int32, error) {
	s = TrimSpace(s)
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("xsdlex: invalid int %q: %w", strings.Clone(s), err)
	}
	return int32(v), nil
}

// ParseLong parses the lexical form of an xsd:long.
func ParseLong(s string) (int64, error) {
	s = TrimSpace(s)
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("xsdlex: invalid long %q: %w", strings.Clone(s), err)
	}
	return v, nil
}

// ParseDouble parses the lexical form of an xsd:double, accepting
// surrounding whitespace and the special names INF, -INF and NaN. Short
// plain decimals take an exact fast path; everything else, and every
// error, is strconv.ParseFloat's.
func ParseDouble(s string) (float64, error) {
	s = TrimSpace(s)
	switch s {
	case "INF", "+INF":
		return math.Inf(1), nil
	case "-INF":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	if v, ok := parseExact(s); ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("xsdlex: invalid double %q: %w", strings.Clone(s), err)
	}
	return v, nil
}

// ParseBool parses the XSD boolean lexical space: true, false, 1, 0.
func ParseBool(s string) (bool, error) {
	switch TrimSpace(s) {
	case "true", "1":
		return true, nil
	case "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("xsdlex: invalid boolean %q", strings.Clone(s))
}

// IsSpace reports whether b is an XML white-space character.
func IsSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// TrimSpace trims XML white space from both ends of s. It differs from
// strings.TrimSpace in trimming exactly the four XML space characters,
// nothing Unicode.
func TrimSpace(s string) string {
	for len(s) > 0 && IsSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && IsSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

// EscapeText appends s to dst with the five XML character entities applied
// to the characters that are not allowed to appear literally in character
// data or attribute values.
func EscapeText(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var ent string
		switch s[i] {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '"':
			ent = "&quot;"
		case '\'':
			ent = "&apos;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, ent...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// EscapedLen reports len(EscapeText(nil, s)) without allocating.
func EscapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			n += 4
		case '<', '>':
			n += 3
		case '"', '\'':
			n += 5
		}
	}
	return n
}

// UnescapeText resolves the five predefined entities plus decimal and
// hexadecimal character references in s. Unknown entities are an error.
func UnescapeText(s string) (string, error) {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for {
		b.WriteString(s[:amp])
		s = s[amp:]
		semi := strings.IndexByte(s, ';')
		if semi < 0 {
			return "", fmt.Errorf("xsdlex: unterminated entity in %q", s)
		}
		ent := s[1:semi]
		switch ent {
		case "amp":
			b.WriteByte('&')
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "quot":
			b.WriteByte('"')
		case "apos":
			b.WriteByte('\'')
		default:
			if len(ent) > 1 && ent[0] == '#' {
				r, err := parseCharRef(ent[1:])
				if err != nil {
					return "", err
				}
				b.WriteRune(r)
			} else {
				return "", fmt.Errorf("xsdlex: unknown entity &%s;", ent)
			}
		}
		s = s[semi+1:]
		amp = strings.IndexByte(s, '&')
		if amp < 0 {
			b.WriteString(s)
			return b.String(), nil
		}
	}
}

func parseCharRef(s string) (rune, error) {
	base := 10
	if len(s) > 0 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, base, 32)
	if err != nil || v > 0x10FFFF {
		return 0, fmt.Errorf("xsdlex: bad character reference &#%s;", s)
	}
	return rune(v), nil
}
