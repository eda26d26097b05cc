package pool

import (
	"bytes"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// TestReplicaBounceForcesRewrite is the regression test for the stale
// payload bug: dirty bits live on the message but template bytes live
// per replica, so a message whose call bounces to a fallback replica
// (preferred one busy) and then returns must not be classified as a
// content match — the original replica's bytes predate the bounce.
func TestReplicaBounceForcesRewrite(t *testing.T) {
	st := NewShardedStore(1, 2, 0, core.Config{}, nil)
	d := workload.NewDoubles(8, workload.FillIntermediate)
	m := d.Msg

	call := func() (core.CallInfo, []byte, *engine) {
		t.Helper()
		r := st.acquire(m, 0)
		var buf bytes.Buffer
		r.sink.s = transport.WriterSink{W: &buf}
		ci, err := r.stub.Call(m)
		st.release(r)
		if err != nil {
			t.Fatal(err)
		}
		return ci, buf.Bytes(), r
	}

	ci1, b1, r1 := call()
	if ci1.Match != core.FirstTime {
		t.Fatalf("call 1 match = %v, want first-time", ci1.Match)
	}

	// Call 2 carries new values and is forced onto a second replica by
	// holding the first one busy (the TryLock fallback path).
	d.SetAll(4242.5)
	r1.mu.Lock()
	_, _, r2 := call()
	r1.mu.Unlock()
	if r2 == r1 {
		t.Fatal("call 2 was expected to bounce to a second replica")
	}

	// Call 3 is untouched and returns to the first replica (the second
	// is held busy). Its template bytes still hold call 1's values, so
	// the call must be forced through a full rewrite, not resend them.
	r2.mu.Lock()
	ci3, b3, r3 := call()
	r2.mu.Unlock()
	if r3 != r1 {
		t.Fatal("call 3 was expected to return to the first replica")
	}
	if ci3.Match == core.ContentMatch {
		t.Fatalf("call 3 classified as content match on a stale template")
	}
	if bytes.Equal(b3, b1) {
		t.Fatal("call 3 resent call 1's stale payload")
	}
	if !bytes.Contains(b3, []byte("4242.5")) {
		t.Fatalf("call 3 payload missing current values:\n%s", b3)
	}
	if got := st.metrics.staleRebinds.Load(); got != 1 {
		t.Fatalf("stale rebinds = %d, want 1", got)
	}
}

// TestShardedStoreEvictsColdSignatures proves the byte budget evicts
// cold (operation, signature) replica sets while recently used ones stay
// warm, so the store cannot grow without bound under varying message
// shapes. The budget fits two of the three shapes' templates.
func TestShardedStoreEvictsColdSignatures(t *testing.T) {
	// Each array length is a distinct structural signature of the same
	// operation; the three templates differ in size by a few bytes.
	dA := workload.NewDoubles(4, workload.FillIntermediate)
	dB := workload.NewDoubles(5, workload.FillIntermediate)
	dC := workload.NewDoubles(6, workload.FillIntermediate)

	probe, _ := newDiscardPool(t, Options{Replicas: 1})
	if _, err := probe.Call(workload.NewDoubles(6, workload.FillIntermediate).Msg); err != nil {
		t.Fatal(err)
	}
	one := probe.Stats().TemplateBytes
	p, _ := newDiscardPool(t, Options{Replicas: 1, MaxTemplateBytes: one * 5 / 2})

	for _, m := range []*workload.Doubles{dA, dB} {
		if ci, err := p.Call(m.Msg); err != nil || ci.Match != core.FirstTime {
			t.Fatalf("warmup: %v %v", ci.Match, err)
		}
	}
	// Touch A so B becomes the LRU tail, then push C in: B is evicted.
	if ci, err := p.Call(dA.Msg); err != nil || ci.Match != core.ContentMatch {
		t.Fatalf("recency touch: %v %v", ci.Match, err)
	}
	if ci, err := p.Call(dC.Msg); err != nil || ci.Match != core.FirstTime {
		t.Fatalf("insert C: %v %v", ci.Match, err)
	}

	if got := p.Entries(); got != 2 {
		t.Fatalf("entries = %d, want 2 (budget fits two)", got)
	}
	if ci, err := p.Call(dA.Msg); err != nil || ci.Match == core.FirstTime {
		t.Fatalf("A went cold despite recency: %v %v", ci.Match, err)
	}
	if ci, err := p.Call(dB.Msg); err != nil || ci.Match != core.FirstTime {
		t.Fatalf("B expected to have been evicted: %v %v", ci.Match, err)
	}
	st := p.Stats()
	if st.TemplateEvictions != 2 || st.TemplateBudgetEvictions != 2 {
		t.Fatalf("evictions = %d (budget %d), want 2 budget evictions (B then C)",
			st.TemplateEvictions, st.TemplateBudgetEvictions)
	}
	if st.TemplateBytes > one*5/2 {
		t.Fatalf("template bytes %d over the %d budget", st.TemplateBytes, one*5/2)
	}
}

// TestDefaultPoolKeepsEveryShapeWarm is the regression test for the
// pool-wide per-operation signature cap: one operation sent in six
// shapes in ring order — the worst case for a count-capped LRU, which
// evicted every shape just before its turn came round again — must stay
// warm under the default byte budget: one first-time send per shape,
// then content matches, no evictions.
func TestDefaultPoolKeepsEveryShapeWarm(t *testing.T) {
	p, _ := newDiscardPool(t, Options{})
	var shapes []*workload.Doubles
	for n := 96; n < 102; n++ {
		shapes = append(shapes, workload.NewDoubles(n, workload.FillIntermediate))
	}
	for round := 0; round < 5; round++ {
		for i, d := range shapes {
			ci, err := p.Call(d.Msg)
			if err != nil {
				t.Fatal(err)
			}
			if round > 0 && ci.Match == core.FirstTime {
				t.Fatalf("round %d shape %d: first-time send after warm-up", round, i)
			}
		}
	}
	st := p.Stats()
	if st.FirstTimeSends != int64(len(shapes)) || st.TemplateEvictions != 0 {
		t.Fatalf("first-time sends %d, evictions %d; want %d and 0",
			st.FirstTimeSends, st.TemplateEvictions, len(shapes))
	}
	if got := p.Entries(); got != len(shapes) {
		t.Fatalf("entries = %d, want %d", got, len(shapes))
	}
}

// TestBudgetEvictionDegradesToFTS is the client half of the
// eviction-under-budget-pressure contract: a replica set evicted by the
// byte budget is rebuilt from scratch on its message's next call — a
// degraded first-time send carrying the message's current values, never
// a diff against released template bytes.
func TestBudgetEvictionDegradesToFTS(t *testing.T) {
	// A 1-byte budget admits each entry only by self-exemption and
	// condemns everything else at every release.
	st := NewShardedStore(1, 1, 1, core.Config{}, nil)
	dA := workload.NewDoubles(8, workload.FillIntermediate)
	dB := workload.NewDoubles(9, workload.FillIntermediate)

	call := func(d *workload.Doubles) (core.CallInfo, []byte) {
		t.Helper()
		r := st.acquire(d.Msg, 0)
		var buf bytes.Buffer
		r.sink.s = transport.WriterSink{W: &buf}
		ci, err := r.stub.Call(d.Msg)
		st.release(r)
		if err != nil {
			t.Fatal(err)
		}
		return ci, buf.Bytes()
	}

	if ci, _ := call(dA); ci.Match != core.FirstTime {
		t.Fatalf("call A1 match = %v, want first-time", ci.Match)
	}
	if ci, _ := call(dB); ci.Match != core.FirstTime {
		t.Fatalf("call B match = %v, want first-time", ci.Match)
	}
	if got := st.metrics.budgetEvictions.Load(); got == 0 {
		t.Fatal("expected a budget eviction after B's release")
	}
	if c := st.reg.Counters(); c.Pending != 0 {
		t.Fatalf("pending releases = %d, want 0 (no call in flight)", c.Pending)
	}

	// A's entry is gone and its arenas released: the next call must be a
	// fresh first-time send with A's current values, not a diff.
	dA.SetAll(777.25)
	ci, b := call(dA)
	if ci.Match != core.FirstTime {
		t.Fatalf("call A2 match = %v, want degraded first-time", ci.Match)
	}
	if !bytes.Contains(b, []byte("777.25")) {
		t.Fatalf("call A2 payload missing current values:\n%s", b)
	}
}

// TestBudgetEvictionWithInFlightCall condemns an entry while a call
// holds one of its engines: the call must finish serializing against
// live arenas (under -tags membufpoison a use-after-release would put
// 0xDB poison bytes on the wire), and the arenas are released only when
// the in-flight reference returns.
func TestBudgetEvictionWithInFlightCall(t *testing.T) {
	st := NewShardedStore(1, 1, 1, core.Config{}, nil)
	dA := workload.NewDoubles(8, workload.FillIntermediate)
	dB := workload.NewDoubles(9, workload.FillIntermediate)

	call := func(d *workload.Doubles) core.CallInfo {
		t.Helper()
		r := st.acquire(d.Msg, 0)
		var buf bytes.Buffer
		r.sink.s = transport.WriterSink{W: &buf}
		ci, err := r.stub.Call(d.Msg)
		st.release(r)
		if err != nil {
			t.Fatal(err)
		}
		return ci
	}

	// Warm A, then take its engine as an in-flight call would.
	if ci := call(dA); ci.Match != core.FirstTime {
		t.Fatalf("warmup match = %v", ci.Match)
	}
	rA := st.acquire(dA.Msg, 0)

	// B's release must chase the budget; with A in flight only the
	// last-resort tier can pay, condemning A's entry under our feet.
	call(dB)
	if got := st.metrics.budgetEvictions.Load(); got == 0 {
		t.Fatal("expected a budget eviction while A was in flight")
	}
	if c := st.reg.Counters(); c.Pending == 0 {
		t.Fatal("condemned in-flight entry should be pending arena release")
	}

	// The held engine still diffs and sends against live template bytes.
	var buf bytes.Buffer
	rA.sink.s = transport.WriterSink{W: &buf}
	dA.SetAll(4321.5)
	if _, err := rA.stub.Call(dA.Msg); err != nil {
		t.Fatal(err)
	}
	st.release(rA)
	out := buf.Bytes()
	if !bytes.Contains(out, []byte("4321.5")) {
		t.Fatalf("in-flight call payload missing current values:\n%s", out)
	}
	for _, c := range out {
		if c == 0xDB {
			t.Fatal("poison byte on the wire: template arenas were released under an in-flight call")
		}
	}
	if c := st.reg.Counters(); c.Pending != 0 {
		t.Fatalf("pending releases = %d, want 0 after the in-flight call returned", c.Pending)
	}

	// The condemned entry is gone: A's next call rebuilds fresh.
	if ci := call(dA); ci.Match != core.FirstTime {
		t.Fatalf("post-eviction match = %v, want first-time", ci.Match)
	}
}
