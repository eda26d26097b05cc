package trace

import (
	"math"
	"sync"
	"time"
)

// Tail-based slow-call capture: a second, small ring retaining the
// *complete* event set of calls whose end-to-end latency exceeded a
// live threshold. The main flight-recorder ring keeps only the most
// recent Size events — by the time a human looks at a p99 outlier, its
// decision trail has usually been lapped. The slow ring fixes that:
// when a call completes above the threshold, every event carrying its
// span id still present in the main ring is copied into a preallocated
// slow entry, so /debug/trace/slow serves full per-call timelines long
// after the main ring has moved on.
//
// The threshold is live-adjustable two ways: an absolute duration
// (SetSlowThreshold) or a rolling quantile of observed end-to-end
// latencies (SetSlowQuantile), recomputed periodically from a
// Histogram. Capture itself allocates nothing — the entries, their event
// arrays, and the ring are preallocated — so a burst of slow calls
// cannot disturb the steady-state allocation guarantees. With capture
// off (the default), ObserveCall costs one atomic load.

const (
	// slowRingSize is how many slow calls the ring retains (newest
	// overwrite oldest).
	slowRingSize = 32
	// slowEventCap bounds the events copied per captured call; calls
	// with more matching events in the main ring are truncated
	// (Truncated marks them in the dump).
	slowEventCap = 64
	// slowRecalcMask: with quantile mode on, the threshold is
	// recomputed every (slowRecalcMask+1) observations.
	slowRecalcMask = 255

	slowModeOff      = 0
	slowModeAbsolute = 1
	slowModeQuantile = 2
)

// slowEntry is one captured slow call. The mutex serializes a writer
// (capture) against readers (SlowSnapshot) and against another writer
// that wrapped the ring.
type slowEntry struct {
	mu    sync.Mutex
	seq   uint64 // 1-based capture ordinal; 0 = never written
	span  uint64
	lat   int64 // end-to-end ns
	t     int64 // capture UnixNano
	n     int
	trunc bool
	evs   [slowEventCap]Event
}

// SetSlowThreshold arms slow-call capture with an absolute end-to-end
// latency threshold; d <= 0 disables capture.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if d <= 0 {
		t.slowMode.Store(slowModeOff)
		return
	}
	t.slowThresh.Store(int64(d))
	t.slowMode.Store(slowModeAbsolute)
}

// SetSlowQuantile arms slow-call capture with a rolling-quantile
// threshold: calls slower than the q-quantile of recently observed
// end-to-end latencies are captured. q outside (0,1) disables capture.
// The threshold starts unestablished (nothing captured) and is
// recomputed every few hundred observations.
func (t *Tracer) SetSlowQuantile(q float64) {
	if q <= 0 || q >= 1 {
		t.slowMode.Store(slowModeOff)
		return
	}
	t.slowQuantile.Store(math.Float64bits(q))
	t.slowThresh.Store(0)
	t.slowMode.Store(slowModeQuantile)
}

// SlowThreshold returns the currently effective capture threshold
// (zero when capture is off or a quantile threshold is not yet
// established).
func (t *Tracer) SlowThreshold() time.Duration {
	if t.slowMode.Load() == slowModeOff {
		return 0
	}
	return time.Duration(t.slowThresh.Load())
}

// ObserveCall reports one completed call's end-to-end latency. With
// capture off it is one atomic load; with capture armed it feeds the
// rolling histogram and, when the call exceeds the live threshold,
// copies the call's surviving events out of the main ring into the slow
// ring. Never allocates.
func (t *Tracer) ObserveCall(span uint64, latNs int64) {
	mode := t.slowMode.Load()
	if mode == slowModeOff || span == 0 {
		return
	}
	if mode == slowModeQuantile {
		t.observeQuantile(latNs)
	}
	thresh := t.slowThresh.Load()
	if thresh <= 0 || latNs < thresh {
		return
	}
	t.capture(span, latNs)
}

// observeQuantile updates the rolling latency histogram and
// periodically recomputes the threshold as the configured quantile's
// bucket upper bound.
func (t *Tracer) observeQuantile(latNs int64) {
	t.slowLat.Observe(latNs)
	if t.slowLat.Count()&slowRecalcMask != 0 {
		return
	}
	t.slowThresh.Store(t.slowLat.Quantile(math.Float64frombits(t.slowQuantile.Load())))
}

// capture copies every main-ring event carrying span into the next
// slow entry. It scans the whole ring under per-slot mutexes — linear
// in ring size, but only paid for calls already past the threshold.
func (t *Tracer) capture(span uint64, latNs int64) {
	ord := t.slowIdx.Add(1)
	e := &t.slow[(ord-1)%uint64(len(t.slow))]
	e.mu.Lock()
	if e.seq > ord {
		// A capture lapping this one already owns the slot: ordinals are
		// taken before slot locks, so a delayed older capture can lock
		// after a newer one. Dropping the older keeps slot seqs monotonic
		// — otherwise a snapshot would skip the slot as stale.
		e.mu.Unlock()
		t.slowCaptured.Add(1)
		return
	}
	e.seq = ord
	e.span = span
	e.lat = latNs
	e.t = time.Now().UnixNano()
	e.n = 0
	e.trunc = false
	total := t.seq.Load()
	size := uint64(len(t.slots))
	lo := uint64(0)
	if total > size {
		lo = total - size
	}
	for i := lo; i < total; i++ {
		s := &t.slots[i&t.mask]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.Seq != i || ev.Span != span {
			continue
		}
		if e.n == slowEventCap {
			e.trunc = true
			break
		}
		e.evs[e.n] = ev
		e.n++
	}
	e.mu.Unlock()
	t.slowCaptured.Add(1)
}

// SlowCall is one captured slow call in the JSON dump.
type SlowCall struct {
	Span      uint64      `json:"span"`
	LatencyNs int64       `json:"latency_ns"`
	Time      int64       `json:"t"`
	Truncated bool        `json:"truncated,omitempty"`
	Events    []EventJSON `json:"events"`
}

// SlowDump is the /debug/trace/slow payload: capture configuration,
// totals, the op-name table, and the retained slow calls oldest-first.
type SlowDump struct {
	Mode        string           `json:"mode"` // "off", "absolute", "quantile"
	ThresholdNs int64            `json:"threshold_ns"`
	Quantile    float64          `json:"quantile,omitempty"`
	Captured    uint64           `json:"captured"`
	Ops         map[int64]string `json:"ops"`
	Calls       []SlowCall       `json:"calls"`
}

// SlowSnapshot copies the retained slow calls out of the ring,
// oldest-first.
func (t *Tracer) SlowSnapshot() SlowDump {
	d := SlowDump{
		ThresholdNs: t.slowThresh.Load(),
		Captured:    t.slowCaptured.Load(),
		Ops:         make(map[int64]string),
		Calls:       make([]SlowCall, 0, len(t.slow)),
	}
	switch t.slowMode.Load() {
	case slowModeAbsolute:
		d.Mode = "absolute"
	case slowModeQuantile:
		d.Mode = "quantile"
		d.Quantile = math.Float64frombits(t.slowQuantile.Load())
	default:
		d.Mode = "off"
		d.ThresholdNs = 0
	}
	t.opsRev.Range(func(k, v any) bool {
		d.Ops[int64(k.(uint32))] = v.(string)
		return true
	})
	ord := t.slowIdx.Load()
	n := uint64(len(t.slow))
	lo := uint64(1)
	if ord > n {
		lo = ord - n + 1
	}
	for o := lo; o <= ord; o++ {
		e := &t.slow[(o-1)%n]
		e.mu.Lock()
		if e.seq != o {
			// Lapped by a newer capture (or never written); skip.
			e.mu.Unlock()
			continue
		}
		c := SlowCall{
			Span: e.span, LatencyNs: e.lat, Time: e.t,
			Truncated: e.trunc,
			Events:    make([]EventJSON, 0, e.n),
		}
		for i := 0; i < e.n; i++ {
			ev := e.evs[i]
			c.Events = append(c.Events, EventJSON{
				Seq: ev.Seq, Span: ev.Span, Time: ev.Time,
				Kind: ev.Kind.String(), A: ev.A, B: ev.B, C: ev.C,
			})
		}
		e.mu.Unlock()
		d.Calls = append(d.Calls, c)
	}
	return d
}

// ClearSlow discards all captured slow calls (the threshold
// configuration is preserved).
func (t *Tracer) ClearSlow() {
	for i := range t.slow {
		e := &t.slow[i]
		e.mu.Lock()
		e.seq = 0
		e.n = 0
		e.mu.Unlock()
	}
}

// ObserveCall reports a completed call to the default tracer's slow
// ring.
func ObserveCall(span uint64, latNs int64) { Default.ObserveCall(span, latNs) }

// SetSlowThreshold arms the default tracer's slow ring with an
// absolute threshold.
func SetSlowThreshold(d time.Duration) { Default.SetSlowThreshold(d) }

// SetSlowQuantile arms the default tracer's slow ring with a rolling
// quantile threshold.
func SetSlowQuantile(q float64) { Default.SetSlowQuantile(q) }
