package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// TestGateFires runs the gate self-check on every workload: one wrong
// expected digest must fail exactly that call, a clean run none.
func TestGateFires(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs))
			if err := selfCheck(w, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGeneratorIsSeeded: the same seed regenerates the same message
// stream (the replays depend on it), another seed does not.
func TestGeneratorIsSeeded(t *testing.T) {
	for _, w := range workloads {
		digests := func(seed uint64) []uint64 {
			c := newCaller(w, seed, 0)
			var out []uint64
			for i := 0; i < 50; i++ {
				g := c.advance()
				if got := messageDigest(g.msg); got != g.digest {
					t.Fatalf("%s: running digest %x, recomputed %x", w.name, g.digest, got)
				}
				out = append(out, g.digest)
			}
			return out
		}
		a, b, c := digests(1), digests(1), digests(2)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: call %d differs between two runs of seed 1", w.name, i)
			}
		}
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: seeds 1 and 2 generate the same stream", w.name)
		}
	}
}

// TestNormalValuesFitWidth: generated values that must not shift fit
// the stuffed widths, and wide ones exceed them.
func TestNormalValuesFitWidth(t *testing.T) {
	c := newCaller(workloads[0], 3, 0)
	g := c.msgs[0]
	var buf bytes.Buffer
	stub := core.NewStub(engineConfig, transport.WriterSink{W: &buf})
	if _, err := stub.Call(g.msg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.advance()
		ci, err := stub.Call(g.msg)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Match != core.StructuralMatch || ci.Shifts != 0 {
			t.Fatalf("call %d: %v with %d shifts; want a perfect structural match", i, ci.Match, ci.Shifts)
		}
	}
	for i := 0; i < 1000; i++ {
		if n := len(transportDouble(wideDouble(c.rng))); n <= doubleWidth {
			t.Fatalf("wide double has %d characters", n)
		}
	}
}

func transportDouble(v float64) string {
	m := wire.NewMessage(benchNS, "x")
	m.AddDouble("v", v)
	var buf bytes.Buffer
	stub := core.NewStub(core.Config{}, transport.WriterSink{W: &buf})
	if _, err := stub.Call(m); err != nil {
		panic(err)
	}
	b := buf.Bytes()
	i := bytes.Index(b, []byte("<v"))
	i += bytes.IndexByte(b[i:], '>') + 1
	return string(b[i : i+bytes.IndexByte(b[i:], '<')])
}

// TestResponseID reads the call identity back out of a serialized
// benchAck, as the traced run does to link spans.
func TestResponseID(t *testing.T) {
	resp := wire.NewMessage(benchNS, "benchAck")
	resp.AddInt("mid", 12)
	resp.AddInt("seq", 345)
	resp.AddInt("n", 1002)
	var buf bytes.Buffer
	stub := core.NewStub(engineConfig, transport.WriterSink{W: &buf})
	if _, err := stub.Call(resp); err != nil {
		t.Fatal(err)
	}
	if got, want := responseID(buf.Bytes()), callID(12, 345); got != want {
		t.Fatalf("responseID = %x, want %x in %s", got, want, buf.Bytes())
	}
	if responseID([]byte("not a response")) != 0 {
		t.Fatal("responseID found an id in a body without one")
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json declares exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		json []entry
		defs []def
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
