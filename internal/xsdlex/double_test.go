package xsdlex

import (
	"bsoap/internal/dragon"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// checkAppendDouble compares the encoder with strconv's shortest 'G'
// for the finite v; the XSD special names are covered elsewhere.
func checkAppendDouble(t *testing.T, v float64) {
	t.Helper()
	var a, b [32]byte
	got := AppendDouble(a[:0], v)
	want := strconv.AppendFloat(b[:0], v, 'G', -1, 64)
	if string(got) != string(want) {
		t.Fatalf("AppendDouble(%#016x) = %q, strconv 'G' = %q", math.Float64bits(v), got, want)
	}
	if n := DoubleLen(v); n != len(want) {
		t.Fatalf("DoubleLen(%#016x) = %d, want %d", math.Float64bits(v), n, len(want))
	}
}

// edgeDoubles lists the values where shortest-digit algorithms go
// wrong: every power of two and ten with its neighbours one ulp away,
// the subnormal range's bottom and top, integers, and the extremes.
func edgeDoubles() []float64 {
	var vs []float64
	ulps := func(v float64) {
		vs = append(vs, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	for e := -1074; e <= 1023; e++ {
		ulps(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		v, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		ulps(v)
	}
	for b := uint64(1); b <= 1<<12; b++ {
		vs = append(vs, math.Float64frombits(b), math.Float64frombits(1<<52-b))
	}
	for i := 0; i <= 1<<12; i++ {
		vs = append(vs, float64(i), float64(1<<53-i), float64(1<<53+2*i))
	}
	vs = append(vs, math.MaxFloat64, math.SmallestNonzeroFloat64, 0, math.Copysign(0, -1),
		0.1, 0.2, 0.3, 1.0/3, 2.0/3, 1e21, 1e22, 1e23, 123456, 1234567, 0.0001, 0.00001,
		5e-324, 1.7976931348623157e308, 2.2250738585072014e-308, 2.225073858507201e-308)
	for _, v := range vs[:len(vs):len(vs)] {
		vs = append(vs, -v)
	}
	return vs
}

func TestAppendDoubleEdgesMatchStrconv(t *testing.T) {
	for _, v := range edgeDoubles() {
		checkAppendDouble(t, v)
	}
}

// TestAppendDoubleRandomBitsMatchStrconv covers a million seeded random
// bit patterns: uniform over the bits, so every exponent is as likely as
// any other.
func TestAppendDoubleRandomBitsMatchStrconv(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < n; i++ {
		v := math.Float64frombits(r.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		checkAppendDouble(t, v)
	}
}

// TestAppendDoubleMatchesDragon holds the encoder to the exact
// big-integer printer, which derives the shortest digits independently
// of strconv.
func TestAppendDoubleMatchesDragon(t *testing.T) {
	vs := []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1e23, 5e-324, 9007199254740993}
	for e := -1074; e <= 1023; e += 7 {
		v := math.Ldexp(1, e)
		vs = append(vs, v, math.Nextafter(v, 0))
	}
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 4000; i++ {
		if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			vs = append(vs, v)
		}
	}
	for _, v := range vs {
		if got, want := AppendDouble(nil, v), dragon.AppendShortest(nil, v); string(got) != string(want) {
			t.Fatalf("AppendDouble(%#016x) = %q, dragon = %q", math.Float64bits(v), got, want)
		}
	}
}

// TestPow10TableMatchesBig recomputes every g126 entry with exact
// integer arithmetic: g = floor(10^-k · 2^(125-f)) + 1, f the largest
// integer with 2^f ≤ 10^-k.
func TestPow10TableMatchesBig(t *testing.T) {
	one := big.NewInt(1)
	for k := minK; k <= maxK; k++ {
		num := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(-k, 0))), nil)
		den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, 0))), nil)
		f := flog2Rat(num, den)
		if f >= 125 {
			den.Lsh(den, uint(f-125))
		} else {
			num.Lsh(num, uint(125-f))
		}
		g := new(big.Int).Quo(num, den)
		g.Add(g, one)
		if g.BitLen() != 126 {
			t.Fatalf("k=%d: g has %d bits, want 126", k, g.BitLen())
		}
		g0 := new(big.Int).And(g, new(big.Int).Sub(new(big.Int).Lsh(one, 63), one))
		g1 := new(big.Int).Rsh(g, 63)
		if e := g126[k-minK]; e[0] != g1.Uint64() || e[1] != g0.Uint64() {
			t.Fatalf("g126[k=%d] = {%#x, %#x}, want {%#x, %#x}", k, e[0], e[1], g1, g0)
		}
	}
}

// flog2Rat returns the largest f with 2^f ≤ num/den.
func flog2Rat(num, den *big.Int) int {
	f := num.BitLen() - den.BitLen()
	for !pow2LE(f, num, den) {
		f--
	}
	for pow2LE(f+1, num, den) {
		f++
	}
	return f
}

// pow2LE reports whether 2^f ≤ num/den.
func pow2LE(f int, num, den *big.Int) bool {
	l, r := new(big.Int).Set(den), new(big.Int).Set(num)
	if f >= 0 {
		l.Lsh(l, uint(f))
	} else {
		r.Lsh(r, uint(-f))
	}
	return l.Cmp(r) <= 0
}

// TestFloorLogApproximations checks the fixed-point logarithms against
// exact comparisons over every argument the encoder passes them.
func TestFloorLogApproximations(t *testing.T) {
	pow := func(b, e int) (num, den *big.Int) { // b^e as a fraction
		p := new(big.Int).Exp(big.NewInt(int64(b)), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			return big.NewInt(1), p
		}
		return p, big.NewInt(1)
	}
	// floor(log10 r) for r = num/den: the k with 10^k ≤ r < 10^(k+1).
	inDecade := func(k int, num, den *big.Int) bool {
		lo, lod := pow(10, k)
		hi, hid := pow(10, k+1)
		a := new(big.Int).Mul(lo, den)
		b := new(big.Int).Mul(num, lod)
		c := new(big.Int).Mul(num, hid)
		d := new(big.Int).Mul(hi, den)
		return a.Cmp(b) <= 0 && c.Cmp(d) < 0
	}
	for q := -1074; q <= 971; q++ {
		num, den := pow(2, q)
		if k := flog10pow2(q); !inDecade(k, num, den) {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		num.Mul(num, big.NewInt(3))
		den.Mul(den, big.NewInt(4))
		if k := flog10threeQuartersPow2(q); !inDecade(k, num, den) {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d", q, k)
		}
	}
	for e := -maxK; e <= -minK; e++ {
		num, den := pow(10, e)
		if f := flog2pow10(e); f != flog2Rat(num, den) {
			t.Fatalf("flog2pow10(%d) = %d, want %d", e, f, flog2Rat(num, den))
		}
	}
}

// checkParseDouble requires ParseDouble to return what
// strconv.ParseFloat returns for the trimmed input: the same bits, or an
// error exactly when strconv errs. The XSD special names, which strconv
// spells differently, are skipped.
func checkParseDouble(t *testing.T, s string) {
	t.Helper()
	ts := TrimSpace(s)
	switch ts {
	case "INF", "+INF", "-INF", "NaN":
		return
	}
	got, err := ParseDouble(s)
	want, werr := strconv.ParseFloat(ts, 64)
	if (err != nil) != (werr != nil) {
		t.Fatalf("ParseDouble(%q) error = %v, strconv error = %v", s, err, werr)
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) &&
		!(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("ParseDouble(%q) = %#016x, strconv = %#016x", s, math.Float64bits(got), math.Float64bits(want))
	}
}

func TestParseDoubleEdgesMatchStrconv(t *testing.T) {
	for _, s := range []string{
		"", " ", "+", "-", ".", "+.", "-.", "e", "e5", ".e5", "1e", "1e+", "1e-", "1e+-5",
		"0", "-0", "+0", "0.0", "-0.0", "00", "007", "0.5", ".5", "5.", "-.5", "+5.",
		"1..2", "1.2.3", "1e5.5", "1_000", "1_0.5", "0x1p3", "0X1P-2", "0x", "inf", "-Inf",
		"infinity", "+Infinity", "nan", "NAN", "INF", "NaN", " -INF ", "1e309", "-1e309",
		"1e-400", "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"9007199254740992", "9007199254740993", "9007199254740994", "18014398509481985",
		"1e22", "1e23", "9007199254740992e22", "9007199254740993e22", "1e-22", "3e-23",
		"0.1", "0.2", "0.3", "3.141592653589793", "1.7976931348623157E+308", "1.7976931348623159e308",
		"12345678901234567890", "1234567890123456789", "0.000000000000000000000000000001",
		"100000000000000000000000e-22", "123456789012345678e-5",
		"\t2.5\n", " 1E+21 ", "1E5", "1e05", "1e+0000000000000000000005", "0e999999999999",
		"1e-99999999999999999999", "5e", "5E+", "١", "1\x00", "--1", "+-1", "1-", "1e1e1",
	} {
		checkParseDouble(t, s)
	}
}

// TestParseDoubleRandomMatchesStrconv feeds ParseDouble the shortest and
// fixed-precision forms of random doubles, plus random strings over the
// alphabet of decimal syntax, and requires strconv's bits and errors.
func TestParseDoubleRandomMatchesStrconv(t *testing.T) {
	n := 1 << 17
	if testing.Short() {
		n = 1 << 12
	}
	r := rand.New(rand.NewPCG(5, 6))
	// Mostly digits, so the eight-byte digit check meets its neighbours
	// '/' and ':' and high bytes inside long runs.
	const alphabet = "0123456789.eE+-_x /:\xb0\xb9"
	var buf []byte
	for i := 0; i < n; i++ {
		v := math.Float64frombits(r.Uint64())
		if i%2 == 0 {
			v = float64(r.Uint64N(1<<54)) / math.Pow(10, float64(r.IntN(30)))
		}
		prec := r.IntN(22) - 1
		buf = strconv.AppendFloat(buf[:0], v, "eEfgG"[r.IntN(5)], prec, 64)
		checkParseDouble(t, string(buf))
		buf = buf[:0]
		for j := r.IntN(24); j >= 0; j-- {
			c := byte('0' + r.IntN(10))
			if r.IntN(6) == 0 {
				c = alphabet[r.IntN(len(alphabet))]
			}
			buf = append(buf, c)
		}
		checkParseDouble(t, string(buf))
	}
}

// BenchmarkParseDouble parses the lexical forms of 16-significant-digit
// doubles in [0.1, 0.9007), the values the benchmark workloads send.
func BenchmarkParseDouble(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	ss := make([]string, 1024)
	for i := range ss {
		ss[i] = string(AppendDouble(nil, float64(1e15+r.Uint64N(1<<53-1e15))/1e16))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDouble(ss[i%len(ss)]); err != nil {
			b.Fatal(err)
		}
	}
}
