package trace

import "testing"

// TestHistogramBucketBounds pins bucket i as the Prometheus series
// le=2^i ns: an exact power of two lands in its own bucket, one
// nanosecond more in the next.
func TestHistogramBucketBounds(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1023, 10}, {1024, 10}, {1025, 11},
		{1 << 39, 39}, {1<<39 + 1, 39}, {1 << 62, 39},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.ns)
		var b [HistBuckets]int64
		if n := h.Buckets(b[:]); n != 1 {
			t.Fatalf("Observe(%d): count %d, want 1", c.ns, n)
		}
		if b[c.want] != 1 {
			t.Errorf("Observe(%d) landed in bucket %v, want %d", c.ns, b, c.want)
		}
	}
}

// TestHistogramQuantileCeilRank pins the ceiling rank and the reported
// bound: q=0.99 over 10 observations selects the 10th, and each
// quantile is its bucket's upper bound.
func TestHistogramQuantileCeilRank(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", q)
	}
	for i := 0; i < 9; i++ {
		h.Observe(1000)
	}
	h.Observe(100_000)
	if q := h.Quantile(0.50); q != 1024 {
		t.Errorf("p50 = %d, want 1024", q)
	}
	if q := h.Quantile(0.90); q != 1024 {
		t.Errorf("p90 = %d, want 1024", q)
	}
	if q := h.Quantile(0.99); q != 131072 {
		t.Errorf("p99 = %d, want 131072 (rank ceil(0.99*10)=10)", q)
	}
	if h.Count() != 10 || h.Sum() != 9*1000+100_000 {
		t.Errorf("count %d sum %d", h.Count(), h.Sum())
	}
}

// TestStageHistDelegates checks a stage's observations reach its own
// Histogram and exemplar and no other stage's.
func TestStageHistDelegates(t *testing.T) {
	var h StageHist
	h.Observe(StageDecode, 2048, 0)
	h.Observe(StageDecode, 4096, 7)
	if got := h.Stage(StageDecode).Count(); got != 2 {
		t.Fatalf("decode count = %d, want 2", got)
	}
	if got := h.Stage(StageHandler).Count(); got != 0 {
		t.Fatalf("handler count = %d, want 0", got)
	}
	if s := h.SumSeconds(StageDecode); s != 6144e-9 {
		t.Errorf("decode sum = %g s", s)
	}
	if span, ns, ok := h.Exemplar(StageDecode); !ok || span != 7 || ns != 4096 {
		t.Errorf("exemplar = %d, %d, %v", span, ns, ok)
	}
	if h.Stage(Stage(StageCount)) != nil {
		t.Error("unknown stage has a histogram")
	}
}
