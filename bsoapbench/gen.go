package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
)

// benchNS is the namespace of the benchmark-owned operations. Every
// operation carries a message-id leaf (leaf 0) and a sequence leaf
// (leaf 1) ahead of its values, so the server-side gate can find the
// generator's record of each request.
const benchNS = "urn:bsoap-perfbench"

// Stuffed widths the client engine uses (the loadgen engine config);
// "normal" generated values always fit them, "wide" ones never do.
const (
	doubleWidth = 18
	intWidth    = 9
)

var mioType = wire.StructOf("ns1:MIO",
	wire.Field{Name: "x", Type: wire.TInt},
	wire.Field{Name: "y", Type: wire.TInt},
	wire.Field{Name: "value", Type: wire.TDouble},
)

// schemas declares the benchmark operations for the server runtime and
// for the decode replays.
var schemas = []*soapdec.Schema{
	opSchema("benchDoubles", "values", wire.ArrayOf(wire.TDouble)),
	opSchema("benchInts", "values", wire.ArrayOf(wire.TInt)),
	opSchema("benchMIOs", "mios", wire.ArrayOf(mioType)),
}

func opSchema(op, param string, t *wire.Type) *soapdec.Schema {
	return &soapdec.Schema{Namespace: benchNS, Op: op, Params: []soapdec.ParamSpec{
		{Name: "mid", Type: wire.TInt},
		{Name: "seq", Type: wire.TInt},
		{Name: param, Type: t},
	}}
}

func lookupSchema(op string) (*soapdec.Schema, bool) {
	for _, s := range schemas {
		if s.Op == op {
			return s, true
		}
	}
	return nil, false
}

// msgKind selects one of the benchmark operations.
type msgKind uint8

const (
	kDoubles msgKind = iota
	kInts
	kMIOs
)

// workload is one closed-loop traffic mix. Every caller goroutine owns
// its messages; no message is shared between goroutines.
type workload struct {
	name       string
	goroutines int
	conns      int
	depth      int // pipeline depth; 0 is the serial RPC path
	delta      bool
	readAhead  int
	// msgs lists the (kind, element count) of each message a goroutine
	// owns; counts are offset per goroutine so no two messages share a
	// structure.
	msgs   func(g int) []msgShape
	mutate func(r *rand.Rand, m *genMsg)
}

type msgShape struct {
	kind msgKind
	n    int
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records
// why each was chosen. psm-reser makes every call a perfect structural
// match rewriting all values, with delta off, so leaf encode and re-lex
// dominate; sparse-delta changes 1% of the values, so patch frames, the
// round trip and respond dominate; pipelined-mix stresses per-call
// overheads, width repairs and patch fall-off across two connections.
var workloads = []*workload{
	{
		name:       "psm-reser",
		goroutines: 1, conns: 1,
		msgs:   func(int) []msgShape { return []msgShape{{kDoubles, 1000}} },
		mutate: mutateAll,
	},
	{
		name:       "sparse-delta",
		goroutines: 1, conns: 1, delta: true,
		msgs:   func(int) []msgShape { return []msgShape{{kDoubles, 1000}} },
		mutate: mutateSparse,
	},
	{
		name:       "pipelined-mix",
		goroutines: 2, conns: 2, depth: 8, delta: true, readAhead: 8,
		msgs:   mixShapes,
		mutate: mutateMix,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mixShapes gives goroutine g three ~100-element double arrays, three
// ~100-element int arrays and two ~50-element MIO arrays, with element
// counts distinct across goroutines.
func mixShapes(g int) []msgShape {
	o := g * 3
	return []msgShape{
		{kDoubles, 96 + o}, {kDoubles, 97 + o}, {kDoubles, 98 + o},
		{kInts, 96 + o}, {kInts, 97 + o}, {kInts, 98 + o},
		{kMIOs, 48 + g*2}, {kMIOs, 49 + g*2},
	}
}

// genMsg is one benchmark message plus the generator's own record of
// its values: the leaf values it set and their running digest.
type genMsg struct {
	mid    int32
	seq    int32
	msg    *wire.Message
	kinds  []wire.Kind // per leaf
	bits   []uint64    // per leaf, the value last set
	digest uint64      // sum of leafHash over value leaves (2..)
	wide   []int       // value leaves currently past their stuffed width
	rec    *[]float64  // when non-nil, every double set is appended
}

// newGenMsg builds message mid of the given shape with seeded values
// that fit the stuffed widths.
func newGenMsg(r *rand.Rand, mid int32, s msgShape) *genMsg {
	var m *wire.Message
	switch s.kind {
	case kDoubles:
		m = wire.NewMessage(benchNS, "benchDoubles")
	case kInts:
		m = wire.NewMessage(benchNS, "benchInts")
	default:
		m = wire.NewMessage(benchNS, "benchMIOs")
	}
	m.AddInt("mid", mid)
	m.AddInt("seq", 0)
	switch s.kind {
	case kDoubles:
		m.AddDoubleArray("values", s.n)
	case kInts:
		m.AddIntArray("values", s.n)
	default:
		m.AddStructArray("mios", mioType, s.n)
	}
	g := &genMsg{mid: mid, msg: m, kinds: make([]wire.Kind, m.NumLeaves()), bits: make([]uint64, m.NumLeaves())}
	for i := range g.kinds {
		g.kinds[i] = m.LeafType(i).Kind
	}
	g.bits[0] = uint64(uint32(mid))
	for i := 2; i < len(g.kinds); i++ {
		g.digest += leafHash(i, 0)
		g.setNormal(r, i)
	}
	return g
}

// leafHash mixes one leaf's position and value bits (splitmix64
// finalizer); a message digest is the wrapping sum over its value
// leaves, so a single changed leaf updates it in O(1).
func leafHash(leaf int, bits uint64) uint64 {
	z := bits ^ (uint64(leaf) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// messageDigest recomputes a decoded message's digest from scratch.
func messageDigest(m *wire.Message) uint64 {
	var d uint64
	for i := 2; i < m.NumLeaves(); i++ {
		var b uint64
		switch m.LeafType(i).Kind {
		case wire.Int:
			b = uint64(uint32(m.LeafInt(i)))
		case wire.Double:
			b = math.Float64bits(m.LeafDouble(i))
		}
		d += leafHash(i, b)
	}
	return d
}

func (g *genMsg) setBits(leaf int, b uint64) {
	g.digest += leafHash(leaf, b) - leafHash(leaf, g.bits[leaf])
	g.bits[leaf] = b
}

func (g *genMsg) setDouble(leaf int, v float64) {
	g.msg.SetLeafDouble(leaf, v)
	g.setBits(leaf, math.Float64bits(v))
	if g.rec != nil && len(*g.rec) < cap(*g.rec) {
		*g.rec = append(*g.rec, v)
	}
}

func (g *genMsg) setInt(leaf int, v int32) {
	g.msg.SetLeafInt(leaf, v)
	g.setBits(leaf, uint64(uint32(v)))
}

// normalDouble has 16 significant digits in [0.1, 0.9007): its shortest
// form is at most 18 characters, so it fits the stuffed double width.
func normalDouble(r *rand.Rand) float64 {
	const lo = 1_000_000_000_000_000 // 1e15
	return float64(lo+r.Uint64N(1<<53-lo)) / 1e16
}

// wideDouble needs up to 24 characters ("-1.2345678901234567e+300").
func wideDouble(r *rand.Rand) float64 { return -(1 + r.Float64()) * 1e300 }

// normalInt fits the 9-character int width; wideInt needs 11.
func normalInt(r *rand.Rand) int32 { return r.Int32N(1_000_000_000) }
func wideInt(r *rand.Rand) int32   { return -1_000_000_000 - r.Int32N(1_000_000_000) }

func (g *genMsg) setNormal(r *rand.Rand, leaf int) {
	if g.kinds[leaf] == wire.Double {
		g.setDouble(leaf, normalDouble(r))
	} else {
		g.setInt(leaf, normalInt(r))
	}
}

func (g *genMsg) setWide(r *rand.Rand, leaf int) {
	if g.kinds[leaf] == wire.Double {
		g.setDouble(leaf, wideDouble(r))
	} else {
		g.setInt(leaf, wideInt(r))
	}
}

func (g *genMsg) isWide(leaf int) bool {
	for _, w := range g.wide {
		if w == leaf {
			return true
		}
	}
	return false
}

// nextSeq advances the sequence leaf; every call carries a new one.
func (g *genMsg) nextSeq() {
	g.seq++
	g.msg.SetLeafInt(1, g.seq)
	g.bits[1] = uint64(uint32(g.seq))
}

// values returns the number of value leaves (after mid and seq).
func (g *genMsg) values() int { return len(g.kinds) - 2 }

// mutateAll gives every element a fresh value that fits its width: a
// perfect structural match rewriting all values (the paper's reser100).
func mutateAll(r *rand.Rand, g *genMsg) {
	for i := 2; i < len(g.kinds); i++ {
		g.setNormal(r, i)
	}
}

// mutateSparse changes 10 of 1000 elements (1%).
func mutateSparse(r *rand.Rand, g *genMsg) {
	for k := 0; k < 10; k++ {
		g.setNormal(r, 2+r.IntN(g.values()))
	}
}

// mutateMix: 60% of calls leave the values untouched, 30% change 10% of
// them within their widths, and 10% alternately push 5% of them past
// their stuffed width or bring every widened value back under it, so
// shifts, steals and closing-tag shifts keep recurring.
func mutateMix(r *rand.Rand, g *genMsg) {
	switch p := r.IntN(10); {
	case p < 6:
	case p < 9:
		for k := max(1, g.values()/10); k > 0; k-- {
			leaf := 2 + r.IntN(g.values())
			if g.isWide(leaf) {
				g.setWide(r, leaf)
			} else {
				g.setNormal(r, leaf)
			}
		}
	default:
		if len(g.wide) > 0 {
			for _, leaf := range g.wide {
				g.setNormal(r, leaf)
			}
			g.wide = g.wide[:0]
			return
		}
		for k := max(1, g.values()/20); k > 0; k-- {
			leaf := 2 + r.IntN(g.values())
			if !g.isWide(leaf) {
				g.wide = append(g.wide, leaf)
			}
			g.setWide(r, leaf)
		}
	}
}

// caller is one goroutine's share of a workload: its seeded value
// stream and the messages it owns, called in ring order.
type caller struct {
	w    *workload
	rng  *rand.Rand
	msgs []*genMsg
	next int
}

// newCaller builds goroutine g's messages. Message ids are unique
// across goroutines (g*len(msgs)+j) and index the gate's records.
func newCaller(w *workload, seed uint64, g int) *caller {
	c := &caller{w: w, rng: rand.New(rand.NewPCG(seed, uint64(g)+1))}
	shapes := w.msgs(g)
	for j, s := range shapes {
		c.msgs = append(c.msgs, newGenMsg(c.rng, int32(g*len(shapes)+j), s))
	}
	return c
}

// advance mutates the next message in ring order, bumps its sequence
// leaf and returns it.
func (c *caller) advance() *genMsg {
	g := c.msgs[c.next]
	c.next = (c.next + 1) % len(c.msgs)
	c.w.mutate(c.rng, g)
	g.nextSeq()
	return g
}

// gate holds the generator's record of each in-flight request: for
// message id mid, the sequence and digest of the values last handed to
// the pool. Each message has at most one call in flight, so a record is
// never overwritten while the server may still read it.
type gate struct {
	seq      []atomic.Uint64
	digest   []atomic.Uint64
	failures atomic.Int64
}

func newGate(messages int) *gate {
	return &gate{seq: make([]atomic.Uint64, messages), digest: make([]atomic.Uint64, messages)}
}

func (gt *gate) expect(g *genMsg, corrupt bool) {
	d := g.digest
	if corrupt {
		d ^= 1
	}
	gt.digest[g.mid].Store(d)
	gt.seq[g.mid].Store(uint64(uint32(g.seq)))
}

// check verifies a decoded request against the generator's record.
func (gt *gate) check(req *wire.Message) error {
	mid := int(req.LeafInt(0))
	seq := uint64(uint32(req.LeafInt(1)))
	if mid < 0 || mid >= len(gt.seq) {
		gt.failures.Add(1)
		return fmt.Errorf("gate: unknown message id %d", mid)
	}
	if want := gt.seq[mid].Load(); seq != want {
		gt.failures.Add(1)
		return fmt.Errorf("gate: message %d carries seq %d, generator sent %d", mid, seq, want)
	}
	if got, want := messageDigest(req), gt.digest[mid].Load(); got != want {
		gt.failures.Add(1)
		return fmt.Errorf("gate: message %d seq %d digest %016x, generator recorded %016x", mid, seq, got, want)
	}
	return nil
}
