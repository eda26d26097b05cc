package pool

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// discardDial returns a dial function handing out the shared in-process
// sink.
func discardDial(sink *transport.DiscardSink) func() (core.Sink, error) {
	return func() (core.Sink, error) { return sink, nil }
}

func newDiscardPool(t *testing.T, opts Options) (*Pool, *transport.DiscardSink) {
	t.Helper()
	sink := transport.NewDiscardSink()
	opts.Dial = discardDial(sink)
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, sink
}

func TestPoolTemplateReuseAcrossMessages(t *testing.T) {
	// One replica forces both messages onto the same engine: the second
	// message's first call must find the first message's template (warm
	// start), not pay a first-time send.
	p, _ := newDiscardPool(t, Options{Replicas: 1})

	m1 := workload.NewDoubles(64, workload.FillIntermediate)
	ci, err := p.Call(m1.Msg)
	if err != nil || ci.Match != core.FirstTime {
		t.Fatalf("call 1: %v %v, want first-time", ci.Match, err)
	}

	m2 := workload.NewDoubles(64, workload.FillIntermediate)
	ci, err = p.Call(m2.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != core.StructuralMatch {
		t.Fatalf("call 2 (new message, same structure): %v, want structural match (warm template)", ci.Match)
	}
	if got := p.Stats().TemplateRebinds; got != 1 {
		t.Fatalf("template rebinds = %d, want 1", got)
	}
}

func TestPoolContentMatchAffinity(t *testing.T) {
	p, _ := newDiscardPool(t, Options{Replicas: 1})
	d := workload.NewDoubles(64, workload.FillIntermediate)

	if ci, err := p.Call(d.Msg); err != nil || ci.Match != core.FirstTime {
		t.Fatalf("call 1: %v %v", ci.Match, err)
	}
	// Untouched resend through the pool must classify as a content
	// match, exactly as a dedicated stub would.
	if ci, err := p.Call(d.Msg); err != nil || ci.Match != core.ContentMatch {
		t.Fatalf("call 2: %v %v, want content match", ci.Match, err)
	}
	d.TouchFraction(0.25)
	if ci, err := p.Call(d.Msg); err != nil || ci.Match != core.StructuralMatch {
		t.Fatalf("call 3: %v %v, want structural match", ci.Match, err)
	}
}

func TestPoolDistinctOperationsDistinctTemplates(t *testing.T) {
	p, _ := newDiscardPool(t, Options{Replicas: 1})
	d := workload.NewDoubles(16, workload.FillIntermediate)
	i := workload.NewInts(16, workload.FillIntermediate)
	w := workload.NewMIOs(16, workload.FillIntermediate)
	if _, err := p.Call(d.Msg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call(i.Msg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call(w.Msg); err != nil {
		t.Fatal(err)
	}
	if got := p.Entries(); got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	if got := p.TemplateCount(); got != 3 {
		t.Fatalf("templates = %d, want 3", got)
	}
}

// scriptedSink fails every send once armed; pool repair must replace it.
type scriptedSink struct {
	okSends int
	sends   int
}

func (s *scriptedSink) Send(net.Buffers) error {
	s.sends++
	if s.sends > s.okSends {
		return fmt.Errorf("scripted failure on send %d", s.sends)
	}
	return nil
}

func TestPoolRetriesBrokenConnection(t *testing.T) {
	first := &scriptedSink{okSends: 2}
	dials := 0
	p, err := New(Options{
		Size:     1,
		Replicas: 1,
		Dial: func() (core.Sink, error) {
			dials++
			if dials == 1 {
				return first, nil
			}
			return transport.NewDiscardSink(), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	d := workload.NewDoubles(32, workload.FillIntermediate)
	if _, err := p.Call(d.Msg); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	d.TouchFraction(0.5)
	if _, err := p.Call(d.Msg); err != nil {
		t.Fatalf("call 2: %v", err)
	}
	// Third call hits the scripted failure, repairs the slot with a
	// fresh dial, and retries — the caller never sees the error.
	d.TouchFraction(0.5)
	ci, err := p.Call(d.Msg)
	if err != nil {
		t.Fatalf("call 3 should have been retried transparently: %v", err)
	}
	// The failed send poisoned the template, so the transparent retry is
	// a degraded first-time send — never a diff against bytes the server
	// may have half-received.
	if ci.Match != core.FirstTime || !ci.Degraded {
		t.Fatalf("retried call: match=%v degraded=%v, want degraded first-time send", ci.Match, ci.Degraded)
	}
	st := p.Stats()
	if st.Errors != 0 || st.Retries != 1 || st.Dials != 2 {
		t.Fatalf("stats after retry: errors=%d retries=%d dials=%d, want 0/1/2",
			st.Errors, st.Retries, st.Dials)
	}
	if st.DegradedFTS != 1 {
		t.Fatalf("degraded_fts=%d, want 1", st.DegradedFTS)
	}
}

func TestPoolCallAfterCloseFails(t *testing.T) {
	p, _ := newDiscardPool(t, Options{})
	p.Close()
	d := workload.NewDoubles(8, workload.FillMin)
	if _, err := p.Call(d.Msg); err == nil {
		t.Fatal("Call after Close succeeded")
	}
}

func TestPoolRequiresEndpoint(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without Addr or Dial succeeded")
	}
}

func TestMetricsJSON(t *testing.T) {
	p, _ := newDiscardPool(t, Options{Replicas: 1})
	d := workload.NewDoubles(64, workload.FillIntermediate)
	for i := 0; i < 5; i++ {
		if _, err := p.Call(d.Msg); err != nil {
			t.Fatal(err)
		}
		d.TouchFraction(0.1)
	}

	var sb strings.Builder
	if err := p.Metrics().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("endpoint output is not JSON: %v", err)
	}
	for _, key := range []string{
		"calls", "content_matches", "bytes_on_wire", "bytes_saved",
		"pool_checkouts", "latency_p99_ns",
	} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing %q: %s", key, sb.String())
		}
	}
	if decoded["calls"].(float64) != 5 {
		t.Errorf("calls = %v, want 5", decoded["calls"])
	}
	// 1 first-time send serialized everything; the 4 warm calls
	// rewrote at most a few values each: savings must be visible.
	if decoded["bytes_saved"].(float64) <= 0 {
		t.Errorf("bytes_saved = %v, want > 0", decoded["bytes_saved"])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	m := NewMetrics()
	ok := core.CallInfo{Match: core.ContentMatch}
	for i := 0; i < 90; i++ {
		m.RecordCall(ok, nil, time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.RecordCall(ok, nil, time.Millisecond)
	}
	s := m.Snapshot()
	if s.LatencyP50 > 2048 {
		t.Errorf("p50 = %v, want ~1µs bucket", s.LatencyP50)
	}
	if s.LatencyP99 < 500000 {
		t.Errorf("p99 = %v, want ~1ms bucket", s.LatencyP99)
	}
}
