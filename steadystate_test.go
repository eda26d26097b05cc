// Steady-state allocation gates: the contract the buffer-ownership
// refactor establishes is that a warm send — the paper's measurement
// regime, where templates exist and calls repeat — performs ZERO heap
// allocations end to end. These tests enforce it with
// testing.AllocsPerRun rather than benchmarks, so a regression fails
// `go test ./...` instead of silently inflating allocs/op.
//
// The gates are skipped under the race detector (its instrumentation
// allocates); check.sh runs them explicitly without -race.
package bsoap_test

import (
	"net"
	"os"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/core"
	"bsoap/internal/diffdeser"
	"bsoap/internal/harness"
	"bsoap/internal/multiref"
	"bsoap/internal/pool"
	"bsoap/internal/soapdec"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// TestMain honours BSOAP_TRACE=1 by enabling the flight recorder for the
// whole test binary. check.sh re-runs the allocation gates this way: the
// zero-alloc contract must hold with tracing recording every call, not
// just with the hooks compiled to their disabled branch.
func TestMain(m *testing.M) {
	if os.Getenv("BSOAP_TRACE") == "1" {
		trace.Enable()
	}
	os.Exit(m.Run())
}

// gateAllocs asserts fn performs at most want allocations per run once
// warm.
func gateAllocs(t *testing.T, want float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	if got := testing.AllocsPerRun(100, fn); got > want {
		t.Errorf("steady-state allocs/op = %v, want <= %v", got, want)
	}
}

// TestSteadyStateAllocsMCM gates the cheapest path: a content match
// resends the saved template untouched.
func TestSteadyStateAllocsMCM(t *testing.T) {
	sink := transport.NewDiscardSink()
	stub := core.NewStub(core.Config{Chunk: chunk.Config{ChunkSize: 32 * 1024}}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i))
	}
	if _, err := stub.Call(m); err != nil { // first-time send builds the template
		t.Fatal(err)
	}

	gateAllocs(t, 0, func() {
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateAllocsPSM gates the differential path: every value
// dirty each call, rewritten in place under full stuffing (no shifts).
func TestSteadyStateAllocsPSM(t *testing.T) {
	sink := transport.NewDiscardSink()
	stub := core.NewStub(core.Config{
		Chunk: chunk.Config{ChunkSize: 32 * 1024},
		Width: core.WidthPolicy{Double: core.MaxWidth},
	}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i))
	}
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}

	v := 1.0
	gateAllocs(t, 0, func() {
		for i := 0; i < 1000; i++ {
			arr.Set(i, v)
		}
		v++
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateAllocsPaSMSteal gates the partial-match path where a
// growing field is served by stealing a neighbour's padding. Three
// exact-width string leaves rotate which one holds the long value;
// because leaves are rewritten in ascending order, the field that just
// shrank always has donatable padding by the time a later field grows,
// so once the combined widths stabilize every expansion is served by a
// steal — never a shift or a chunk grow — and no call allocates.
func TestSteadyStateAllocsPaSMSteal(t *testing.T) {
	sink := transport.NewDiscardSink()
	stub := core.NewStub(core.Config{
		Chunk:          chunk.Config{ChunkSize: 32 * 1024},
		EnableStealing: true,
	}, sink)

	const long, short = "xxxxxxxxxxxxxxxx", "y"
	m := wire.NewMessage("urn:bench", "echo")
	leaves := []wire.StringRef{
		m.AddString("a", long),
		m.AddString("b", short),
		m.AddString("c", short),
	}

	phase := 0 // index of the leaf holding the long value
	call := func() {
		phase = (phase + 1) % 3
		for i, l := range leaves {
			if i == phase {
				l.Set(long)
			} else {
				l.Set(short)
			}
		}
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past the transient shifts while total field width grows to
	// its fixed point (two leaves' worth of long values).
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		call()
	}
	before := stub.Stats()
	gateAllocs(t, 0, call)
	after := stub.Stats()
	if after.Steals == before.Steals {
		t.Fatalf("workload did not exercise stealing (steals %d -> %d)", before.Steals, after.Steals)
	}
	if after.Shifts != before.Shifts || after.Grows != before.Grows {
		t.Fatalf("workload shifted/grew instead of stealing (shifts %d->%d grows %d->%d)",
			before.Shifts, after.Shifts, before.Grows, after.Grows)
	}
}

// TestSteadyStateAllocsDeltaMCM gates differential transmission on the
// cheapest path: a content match against a synchronized peer goes out
// as a zero-region patch frame — a 40-byte header proving the body is
// unchanged — and must not allocate.
func TestSteadyStateAllocsDeltaMCM(t *testing.T) {
	sink := transport.NewDeltaDiscardSink()
	stub := core.NewStub(core.Config{Chunk: chunk.Config{ChunkSize: 32 * 1024}}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i))
	}
	// First call builds and sync-announces the template; the second is
	// the first patch-eligible one and warms the encoder scratch.
	for i := 0; i < 2; i++ {
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	}

	before := sink.DeltaSends()
	gateAllocs(t, 0, func() {
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	})
	if sink.DeltaSends() == before {
		t.Fatal("warm content matches did not go out as patch frames")
	}
}

// TestSteadyStateAllocsDeltaPatch gates the real patch path: scattered
// in-place rewrites each call (stuffed widths, so no shifts) become a
// multi-region frame — region walk, CRC over the whole body, header
// assembly, gather vector — with zero allocations once warm. The
// touches are scattered because region coalescing is adjacency-only;
// this keeps the frame genuinely multi-region rather than one run.
func TestSteadyStateAllocsDeltaPatch(t *testing.T) {
	sink := transport.NewDeltaDiscardSink()
	stub := core.NewStub(core.Config{
		Chunk: chunk.Config{ChunkSize: 32 * 1024},
		Width: core.WidthPolicy{Double: core.MaxWidth},
	}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i))
	}

	v := 1.0
	call := func() {
		for i := 0; i < 1000; i += 100 {
			arr.Set(i, v)
		}
		v++
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}
	call() // warm the region and frame scratch

	before := sink.DeltaSends()
	gateAllocs(t, 0, call)
	after := sink.DeltaSends()
	if after == before {
		t.Fatal("warm scattered rewrites did not go out as patch frames")
	}
	if st := stub.Stats(); st.Shifts != 0 || st.Grows != 0 {
		t.Fatalf("workload shifted/grew (shifts %d, grows %d); frames were not pure rewrites", st.Shifts, st.Grows)
	}
}

// TestSteadyStateAllocsPool gates the concurrent runtime's whole warm
// path: checkout, replica acquire, differential send, metrics. The
// engine being allocation-free is not enough if the runtime around it
// churns per call.
func TestSteadyStateAllocsPool(t *testing.T) {
	p, _ := harness.DiscardPool(t, pool.Options{Size: 2})

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 100)
	for i := 0; i < 100; i++ {
		arr.Set(i, float64(i))
	}
	// Warm every replica the store may route this message to.
	for i := 0; i < 20; i++ {
		if _, err := p.Call(m); err != nil {
			t.Fatal(err)
		}
	}

	gateAllocs(t, 0, func() {
		if _, err := p.Call(m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateAllocsOverlay gates the chunk-overlaying path: once the
// resident chunk is laid out, re-serializing an array many times its
// size must not allocate.
func TestSteadyStateAllocsOverlay(t *testing.T) {
	sink := transport.NewDiscardSink()
	stub := core.NewStub(core.Config{
		Chunk: chunk.Config{ChunkSize: 4 * 1024},
		Width: core.WidthPolicy{Double: core.MaxWidth},
	}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 2000)
	for i := 0; i < 2000; i++ {
		arr.Set(i, float64(i))
	}
	if _, err := stub.CallOverlay(m, sink); err != nil {
		t.Fatal(err)
	}

	v := 1.0
	gateAllocs(t, 0, func() {
		arr.Set(0, v)
		v++
		if _, err := stub.CallOverlay(m, sink); err != nil {
			t.Fatal(err)
		}
	})
}

// bodySink keeps a copy of the last body sent.
type bodySink struct{ body []byte }

func (c *bodySink) Send(bufs net.Buffers) error {
	c.body = c.body[:0]
	for _, b := range bufs {
		c.body = append(c.body, b...)
	}
	return nil
}

// TestSteadyStateAllocsServerDecode gates the server's warm request
// path: the multi-ref sniff and a differential decode that re-lexes
// every leaf (two same-length bodies alternate, each differing from the
// other in every double and int) must not allocate — no body copy, no
// boxed values, no per-call staging slice.
func TestSteadyStateAllocsServerDecode(t *testing.T) {
	sink := &bodySink{}
	stub := core.NewStub(core.Config{
		Width: core.WidthPolicy{Double: core.MaxWidth, Int: core.MaxWidth},
	}, sink)
	m := wire.NewMessage("urn:bench", "echo")
	ds := m.AddDoubleArray("values", 1000)
	is := m.AddIntArray("counts", 100)
	var bodies [2][]byte
	for k := range bodies {
		for i := 0; i < 1000; i++ {
			ds.Set(i, float64(i)*1.1+float64(k))
		}
		for i := 0; i < 100; i++ {
			is.Set(i, int32(i*7919+k))
		}
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
		bodies[k] = append([]byte(nil), sink.body...)
	}
	if len(bodies[0]) != len(bodies[1]) {
		t.Fatalf("stuffed bodies differ in length: %d vs %d", len(bodies[0]), len(bodies[1]))
	}

	schema := &soapdec.Schema{Namespace: m.Namespace(), Op: m.Operation()}
	for _, p := range m.Params() {
		schema.Params = append(schema.Params, soapdec.ParamSpec{Name: p.Name, Type: p.Type})
	}
	d := diffdeser.New(func(string) (*soapdec.Schema, bool) { return schema, true })
	k := 0
	decode := func() {
		body := bodies[k]
		k ^= 1
		if multiref.HasRefs(body) {
			t.Fatal("plain body reported as multi-ref")
		}
		_, info, err := d.Decode("echo", body)
		if err != nil {
			t.Fatal(err)
		}
		if !info.FullParse && info.ValuesReparsed != 1100 {
			t.Fatalf("fast path re-lexed %d leaves, want 1100", info.ValuesReparsed)
		}
	}
	decode() // full parse builds the template
	decode() // first fast path sizes the staging scratch
	gateAllocs(t, 0, decode)
	if _, info, _ := d.Decode("echo", bodies[k]); info.FullParse {
		t.Fatalf("warm decode fell back to a full parse: %s", info.Reason)
	}
}
