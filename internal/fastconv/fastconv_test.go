package fastconv

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
	"testing/quick"

	"bsoap/internal/xsdlex"
)

func TestWriteIntMatchesStrconv(t *testing.T) {
	f := func(v int32) bool {
		var buf [xsdlex.MaxIntWidth]byte
		n := WriteInt(buf[:], v)
		return string(buf[:n]) == strconv.FormatInt(int64(v), 10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
	for _, v := range []int32{0, 1, -1, 9, 10, -10, math.MaxInt32, math.MinInt32} {
		var buf [xsdlex.MaxIntWidth]byte
		n := WriteInt(buf[:], v)
		if want := strconv.FormatInt(int64(v), 10); string(buf[:n]) != want {
			t.Errorf("WriteInt(%d) = %q, want %q", v, buf[:n], want)
		}
	}
}

func TestWriteLongMatchesStrconv(t *testing.T) {
	f := func(v int64) bool {
		var buf [xsdlex.MaxLongWidth]byte
		n := WriteLong(buf[:], v)
		return string(buf[:n]) == strconv.FormatInt(v, 10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, v := range []int64{0, math.MinInt64, math.MaxInt64} {
		var buf [xsdlex.MaxLongWidth]byte
		n := WriteLong(buf[:], v)
		if want := strconv.FormatInt(v, 10); string(buf[:n]) != want {
			t.Errorf("WriteLong(%d) = %q, want %q", v, buf[:n], want)
		}
	}
}

func TestWriteDoubleMatchesXsdlex(t *testing.T) {
	f := func(v float64) bool {
		var buf [xsdlex.MaxDoubleWidth]byte
		n := WriteDouble(buf[:], v)
		return string(buf[:n]) == string(xsdlex.AppendDouble(nil, v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteBool(t *testing.T) {
	var buf [8]byte
	if n := WriteBool(buf[:], true); string(buf[:n]) != "true" {
		t.Errorf("WriteBool(true) = %q", buf[:n])
	}
	if n := WriteBool(buf[:], false); string(buf[:n]) != "false" {
		t.Errorf("WriteBool(false) = %q", buf[:n])
	}
}

func TestPad(t *testing.T) {
	b := []byte("XXXXXXXX")
	Pad(b, 2, 6)
	if string(b) != "XX    XX" {
		t.Errorf("Pad = %q", b)
	}
	Pad(b, 3, 3) // empty range is a no-op
	if string(b) != "XX    XX" {
		t.Errorf("Pad empty range changed buffer: %q", b)
	}
}

func TestWidthsMatchWrites(t *testing.T) {
	f := func(v int32, d float64) bool {
		var bi [xsdlex.MaxIntWidth]byte
		var bd [xsdlex.MaxDoubleWidth]byte
		return IntWidth(v) == WriteInt(bi[:], v) && DoubleWidth(d) == WriteDouble(bd[:], d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sixteenDigitDoubles returns n seeded doubles with 16 significant
// digits in [0.1, 0.9007), the values the benchmark workloads send.
func sixteenDigitDoubles(n int) []float64 {
	r := rand.New(rand.NewPCG(1, 1))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(1e15+r.Uint64N(1<<53-1e15)) / 1e16
	}
	return vs
}

func BenchmarkWriteDouble(b *testing.B) {
	var buf [xsdlex.MaxDoubleWidth]byte
	vs := sixteenDigitDoubles(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WriteDouble(buf[:], vs[i%len(vs)])
	}
}

func BenchmarkWriteInt(b *testing.B) {
	var buf [xsdlex.MaxIntWidth]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WriteInt(buf[:], -123456789)
	}
}

func TestDoubleConverterSwap(t *testing.T) {
	var buf [xsdlex.MaxDoubleWidth]byte
	def := WriteDouble(buf[:], 3.25)
	defText := string(buf[:def])

	restore := SetDoubleConverter(DragonDoubleConverter)
	n := WriteDouble(buf[:], 3.25)
	if string(buf[:n]) != defText {
		t.Fatalf("dragon converter diverges: %q vs %q", buf[:n], defText)
	}
	// XSD special-value names must be preserved under the swap.
	n = WriteDouble(buf[:], math.Inf(-1))
	if string(buf[:n]) != "-INF" {
		t.Fatalf("dragon -Inf = %q", buf[:n])
	}
	n = WriteDouble(buf[:], math.NaN())
	if string(buf[:n]) != "NaN" {
		t.Fatalf("dragon NaN = %q", buf[:n])
	}
	restore()
	n = WriteDouble(buf[:], 3.25)
	if string(buf[:n]) != defText {
		t.Fatal("restore did not reinstate the default converter")
	}
}

func TestDragonConverterMatchesDefaultBroadly(t *testing.T) {
	f := func(v float64) bool {
		var a, b [xsdlex.MaxDoubleWidth]byte
		na := defaultDoubleConverter(a[:], v)
		nb := DragonDoubleConverter(b[:], v)
		return string(a[:na]) == string(b[:nb])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
