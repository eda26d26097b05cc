package xsdlex

import (
	"math"
	"math/bits"
)

// The xsd:double leaf codec. The encoder finds the shortest decimal that
// rounds back to the double with Giulietti's Schubfach algorithm ("The
// Schubfach way to render doubles", 2020) over the 126-bit power-of-ten
// table in pow10tab.go, and lays it out exactly as
// strconv.AppendFloat(dst, v, 'G', -1, 64) does. The parser takes plain
// decimals that Clinger's fast path converts exactly (one correctly
// rounded float64 multiply or divide) and hands everything else to
// strconv. Both directions are differential-tested against strconv and
// internal/dragon.

//go:generate go run gen_pow10.go

// minK and maxK bound k = floor(log10(2^q)) over every binary exponent q
// of a finite double, q in [-1074, 971].
const (
	minK = -324
	maxK = 292
)

const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// appendShortest appends the shortest round-trip form of the finite v in
// strconv's 'G' layout.
func appendShortest(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	neg := b>>63 != 0
	t := b & (1<<52 - 1)
	be := int(b>>52) & 0x7ff
	var f uint64
	var e int
	switch {
	case be != 0:
		c := t | 1<<52
		if mq := 1075 - be; 0 <= mq && mq < 53 && c&(1<<mq-1) == 0 {
			// An integer below 2^53: its own digits are the shortest.
			f = c >> mq
		} else {
			f, e = schubfach(be-1075, c)
		}
	case t != 0:
		f, e = schubfach(-1074, t)
	case neg:
		return append(dst, '-', '0')
	default:
		return append(dst, '0')
	}
	return appendDecimal(dst, neg, f, e)
}

// schubfach returns the shortest f·10^e inside the rounding interval of
// c·2^q, the one closest to c·2^q when several have that length (ties to
// an even f). f may carry trailing zeros. This is Giulietti's toDecimal
// without the two-digit minimum of Java's Double.toString: the shorter
// length is tried for every s, and the tiniest subnormals are not
// scaled up, so 5e-324 prints as strconv prints it.
func schubfach(q int, c uint64) (f uint64, e int) {
	out := c & 1 // the interval is closed when c is even
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// At a power of two the gap below is half the gap above.
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &g126[k-minK]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	// One digit fewer: at most one multiple of 10^(k+1) fits the interval.
	s := vb >> 2
	sp := s / 10 * 10
	tp := sp + 10
	upin := vbl+out <= sp<<2
	wpin := tp<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp, k
		}
		return tp, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns g·cp / 2^127 rounded to odd, g = g1·2^63 + g0.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | (z&(1<<63-1)+(1<<63-1))>>63
}

// flog10pow2 returns floor(e · log10 2) for |e| ≤ 6432162.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

// flog10threeQuartersPow2 returns floor(log10(3/4 · 2^e)) for |e| ≤ 3150.
func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

// flog2pow10 returns floor(e · log2 10) for |e| ≤ 1233.
func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// appendDecimal appends ±f·10^e (f > 0) in the layout of strconv's
// shortest 'G': %E when the decimal exponent is below -4 or at least 6
// (the precision strconv assumes for shortest output), else %F. The
// digits go right-aligned into a scratch buffer, two at a time, and the
// layout is built around them in place, so dst sees a single append.
func appendDecimal(dst []byte, neg bool, f uint64, e int) []byte {
	for f%10 == 0 {
		f /= 10
		e++
	}
	// buf[i:end] holds the digits; the bytes after end take an exponent
	// or up to five trailing zeros, the bytes before i a sign and "0.000".
	var buf [40]byte
	const end = 32
	i := end
	for f >= 1e8 {
		q := f / 1e8
		put8(buf[i-8:i], uint32(f-q*1e8))
		i -= 8
		f = q
	}
	put8(buf[i-8:i], uint32(f))
	i -= 8
	for buf[i] == '0' {
		i++
	}
	nd := end - i
	dp := nd + e // digits before the decimal point
	j := end
	switch x := dp - 1; {
	case x < -4 || x >= 6:
		if nd > 1 {
			buf[i-1], buf[i] = buf[i], '.'
			i--
		}
		buf[j] = 'E'
		buf[j+1] = '+'
		if x < 0 {
			buf[j+1], x = '-', -x
		}
		j += 2
		if x >= 100 {
			buf[j] = byte('0' + x/100)
			x %= 100
			j++
		}
		buf[j], buf[j+1] = digitPairs[2*x], digitPairs[2*x+1]
		j += 2
	case dp <= 0:
		for ; dp < 0; dp++ {
			i--
			buf[i] = '0'
		}
		i -= 2
		buf[i], buf[i+1] = '0', '.'
	case dp >= nd:
		for ; nd < dp; nd++ {
			buf[j] = '0'
			j++
		}
	default:
		copy(buf[i-1:], buf[i:i+dp])
		buf[i-1+dp] = '.'
		i--
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:j]...)
}

// put8 writes the eight decimal digits of u < 10^8, zero-padded, to b.
func put8(b []byte, u uint32) {
	hi, lo := u/10000, u%10000
	h1, h2 := hi/100*2, hi%100*2
	l1, l2 := lo/100*2, lo%100*2
	_ = b[7]
	b[0], b[1] = digitPairs[h1], digitPairs[h1+1]
	b[2], b[3] = digitPairs[h2], digitPairs[h2+1]
	b[4], b[5] = digitPairs[l1], digitPairs[l1+1]
	b[6], b[7] = digitPairs[l2], digitPairs[l2+1]
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseExact converts a plain decimal — optional sign, digits with at
// most one point, optional exponent — whose significant digits form an
// integer m ≤ 2^53 and whose decimal exponent x has |x| ≤ 22. Both m and
// 10^|x| are exact float64 values, so the one multiply or divide is
// correctly rounded (Clinger 1990), the same bits strconv returns. ok is
// false for every other input, which the caller hands to strconv.
func parseExact(s string) (v float64, ok bool) {
	i := 0
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		i = 1
	}
	start := i
	for i < len(s) && s[i] == '0' {
		i++ // leading zeros are not significant
	}
	j := i
	m, i := digitRun(s, i, 0)
	nd := i - j // significant digits so far
	digits := i > start
	x := 0
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(s) && s[i] == '0' {
				i++
			}
		}
		j = i
		m, i = digitRun(s, i, m)
		nd += i - j
		x = frac - i
		digits = digits || i > frac
	}
	if !digits || nd > 19 {
		return 0, false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		if i == len(s) {
			return 0, false
		}
		ex := 0
		for ; i < len(s); i++ {
			d := s[i] - '0'
			if d > 9 || ex > 1000 {
				return 0, false
			}
			ex = ex*10 + int(d)
		}
		if eneg {
			ex = -ex
		}
		x += ex
	}
	if i != len(s) || m > 1<<53 || x < -22 || x > 22 {
		return 0, false
	}
	v = float64(m)
	if x < 0 {
		v /= exactPow10[-x]
	} else {
		v *= exactPow10[x]
	}
	if neg {
		v = -v
	}
	return v, true
}

// digitRun accumulates the run of decimal digits at s[i:] into m, eight
// at a time while it can, and returns m and the index after the run. m
// wraps past 19 digits; the caller bounds the count.
func digitRun(s string, i int, m uint64) (uint64, int) {
	for ; i+8 <= len(s); i += 8 {
		b := s[i : i+8] // one bounds check; the compiler fuses the loads
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		// Each byte is a digit iff it neither borrows below '0' nor
		// carries past '9' into the high bit (Lemire, fast_float).
		if ((w+0x4646464646464646)|(w-0x3030303030303030))&0x8080808080808080 != 0 {
			break
		}
		// Combine the eight digit values pairwise, then in fours, then
		// once more, in three multiplies.
		w -= 0x3030303030303030
		w = w*10 + w>>8
		w = ((w&0x000000ff000000ff)*(100+1000000<<32) + (w>>16&0x000000ff000000ff)*(1+10000<<32)) >> 32
		m = m*1e8 + uint64(uint32(w))
	}
	for ; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			break
		}
		m = m*10 + uint64(d)
	}
	return m, i
}
