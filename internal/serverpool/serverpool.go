// Package serverpool is the SOAP server runtime: it dispatches incoming
// envelopes to registered operations, deserializing either with a full
// schema-driven parse or with differential deserialization, and
// serializes responses through a differential stub so repeated similar
// responses benefit exactly as client sends do (the paper notes the
// technique "could be used equally well by a server sending identical
// (or similar) responses").
//
// Runtime keeps a pool of per-connection (or per-client) replicas, each
// with its own differential deserializer and differential response stub
// — the server-side mirror of the client's pool.ShardedStore. Requests
// from the same connection land on the same replica, so its stored
// templates track that client's message shapes: concurrent clients with
// different shapes do not thrash a shared template set, and decodes
// proceed in parallel with no cross-connection lock.
//
// Replicas live in the unified replica registry (internal/replica),
// which owns sharding, the recency list, in-flight refcounts and the
// MaxTemplateBytes budget; this package owns what is server-specific —
// the decode fast path, handler dispatch and response serialization.
package serverpool

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/diffdeser"
	"bsoap/internal/multiref"
	reg "bsoap/internal/replica"
	"bsoap/internal/server"
	"bsoap/internal/soapdec"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// Handler processes one decoded request message and returns a response
// message, or nil for one-way operations. The request message is owned
// by the runtime and valid only for the duration of the call.
type Handler func(req *wire.Message) (*wire.Message, error)

// HandlerFactory builds one handler instance. Each replica gets its own
// instance, so handlers may keep per-instance state — in particular a
// reused response wire.Message, which is exactly what makes the
// response-side differential stub effective and is not safe to share
// across replicas.
type HandlerFactory func() Handler

// Affinity selects how requests are grouped onto replicas.
type Affinity int

const (
	// AffinityConn gives every transport connection its own replica.
	// Keep-alive clients (the paper's model) see perfect template
	// locality; the replica dies with the connection's LRU slot.
	AffinityConn Affinity = iota
	// AffinityClient groups by remote host instead, so a client that
	// reconnects (or opens several connections) keeps its templates.
	// Replicas are then contended locks, not exclusive owners.
	AffinityClient
)

// Options configure a Runtime.
type Options struct {
	// DifferentialDeserialization enables the per-replica diffdeser fast
	// path; off, every request is a full schema-driven parse.
	DifferentialDeserialization bool
	// Core configures each replica's response-side differential stub.
	Core core.Config
	// Shards is the number of replica-registry shards (rounded up to a
	// power of two; default 16). More shards means less registry-lock
	// contention; replicas themselves are never shared across requests
	// of different connections under AffinityConn.
	Shards int
	// MaxReplicas bounds resident replicas across all shards (default
	// 256). The bound is enforced per shard as max(1, MaxReplicas/Shards)
	// with LRU eviction, mirroring pool.ShardedStore.
	MaxReplicas int
	// MaxTemplateBytes budgets the replicas' aggregate template memory
	// (request deserializer templates, response stub templates and the
	// response buffer): the registry evicts least-recently-used replicas
	// to stay at or below it. Zero leaves memory bounded only by
	// MaxReplicas and the per-replica key caps. See README "Sizing
	// template memory".
	MaxTemplateBytes int64
	// MaxKeysPerReplica bounds operation keys inside each replica's
	// deserializer (0 = diffdeser.DefaultMaxKeys).
	MaxKeysPerReplica int
	// Affinity selects the replica grouping key (default AffinityConn).
	Affinity Affinity
	// SelfCheck re-decodes every differential fast-path result with a
	// from-scratch parse and compares leaf values — the conformance
	// paranoid mode. A mismatch fails the request and is counted.
	SelfCheck bool
	// Delta accepts differential-transmission requests: sync-annotated
	// full bodies are stored as per-replica patch bases (and
	// acknowledged, which is what turns the client's patch sends on),
	// and patch frames are applied to the held base before decoding.
	// Any mismatch is answered 409/resync and the client falls back to a
	// full-body send — off or on, reconstructed bodies are byte-identical
	// to what the client would have sent in full.
	Delta bool
	// Metrics receives DDS and eviction counters; nil gets a private
	// registry. Pass the same registry as the transport.Server to export
	// everything on one /metrics page.
	Metrics *transport.ServerMetrics
}

// Runtime dispatches SOAP requests across replica deserializer/stub
// pairs. Register all operations before serving; Register is not safe
// to call concurrently with request handling.
type Runtime struct {
	opts    Options
	metrics *transport.ServerMetrics
	ops     map[string]*operation
	reg     *reg.Registry[*replica]

	wsdlMu sync.Mutex
	wsdl   []byte

	requests         atomic.Int64
	fullParses       atomic.Int64
	diffDecodes      atomic.Int64
	valuesReparsed   atomic.Int64
	multiRefInlined  atomic.Int64
	selfCheckFails   atomic.Int64
	replicaEvictions atomic.Int64
	ddsKeyEvictions  atomic.Int64
	deltaApplied     atomic.Int64
	deltaSyncs       atomic.Int64
	deltaResyncs     atomic.Int64
}

type operation struct {
	schema  *soapdec.Schema
	factory HandlerFactory
}

// replica is one client's private decode/encode state: a bounded
// differential deserializer whose templates track that client's request
// shapes, a differential response stub, and per-replica handler
// instances (handlers reuse response messages, so instances cannot be
// shared). The mutex serializes the rare case of two requests mapping
// to one replica (AffinityClient, or an evicted key recreated while its
// old request still runs).
type replica struct {
	mu           sync.Mutex
	differ       *diffdeser.Deserializer
	keyEvictions int64 // last value drained into metrics
	// handlers maps operation to this replica's handler instance. The
	// tracker is the same bounded map the client pool uses for message
	// affinity: at capacity it resets wholesale and the next request of
	// a forgotten operation just re-runs its factory.
	handlers *reg.Tracker[string, Handler]
	respBuf  bytes.Buffer
	stub     *core.Stub
	// size caches the replica's memory footprint for the registry's
	// budget accounting: stored by release while the replica lock is
	// held, read lock-free by SizeBytes under registry locks.
	size atomic.Int64
	// stubFP is the last-walked response-stub footprint and stubGen the
	// stub-stats generation it was computed at (both guarded by mu):
	// release skips the chunk-list walk while the counters that can
	// change the footprint hold still.
	stubFP  int64
	stubGen int64
	// bases holds this replica's differential-transmission patch bases
	// (template id -> last synchronized body), nil until the first sync;
	// deltaBytes tracks their aggregate capacity for the footprint, and
	// frame is the reused patch-parse scratch. All guarded by mu.
	bases      *reg.LRU[uint64, *deltaBase]
	deltaBytes int64
	frame      wire.DeltaFrame
}

// SizeBytes reports the cached footprint (replica.Entry).
func (r *replica) SizeBytes() int { return int(r.size.Load()) }

// ReleaseArenas returns the response stub's template arenas to the
// chunk pool (replica.Entry). The registry calls it once the evicted
// replica's last in-flight request has finished; taking the replica
// lock serializes against that request's final response bytes.
func (r *replica) ReleaseArenas() {
	r.mu.Lock()
	r.stub.Store().ReleaseAll()
	r.mu.Unlock()
}

// Stats is a point-in-time snapshot of runtime counters.
type Stats struct {
	Requests         int64
	FullParses       int64
	DiffDecodes      int64
	ValuesReparsed   int64
	MultiRefInlined  int64
	SelfCheckFails   int64
	Replicas         int // currently resident
	ReplicaEvictions int64
	DDSKeyEvictions  int64

	// Differential transmission: patch frames applied, full bodies stored
	// as bases, and 409/resync answers.
	DeltaApplied int64
	DeltaSyncs   int64
	DeltaResyncs int64
}

// New returns an empty runtime.
func New(opts Options) *Runtime {
	nshards := opts.Shards
	if nshards <= 0 {
		nshards = 16
	}
	maxReplicas := opts.MaxReplicas
	if maxReplicas <= 0 {
		maxReplicas = 256
	}
	m := opts.Metrics
	if m == nil {
		m = transport.NewServerMetrics()
	}
	rt := &Runtime{
		opts:    opts,
		metrics: m,
		ops:     make(map[string]*operation),
	}
	rt.reg = reg.NewRegistry(reg.RegistryOptions[*replica]{
		Shards:     nshards,
		MaxEntries: maxReplicas,
		MaxBytes:   opts.MaxTemplateBytes,
		New:        func(reg.Key) *replica { return rt.newReplica() },
		OnEvict: func(key reg.Key, reason reg.Reason, bytes int64) {
			// The evicted replica is not torn down here: a request
			// already holding it finishes normally, and the registry
			// releases its arenas after the last in-flight reference.
			rt.replicaEvictions.Add(1)
			m.RecordReplicaEviction(reason == reg.ReasonBudget)
			if trace.Enabled() {
				trace.Rec(0, trace.KindReplicaEvict, trace.OpID(key.String()), int64(reason), bytes)
			}
		},
	})
	m.SetTemplateSource(rt.reg.Counters)
	return rt
}

// Register adds an operation. The factory runs once per replica that
// sees the operation. Not safe concurrently with request handling.
func (rt *Runtime) Register(schema *soapdec.Schema, factory HandlerFactory) {
	rt.ops[schema.Op] = &operation{schema: schema, factory: factory}
}

// RegisterShared adds an operation whose single handler is shared by
// every replica. Only safe for handlers that build a fresh response
// message per call (forfeiting response-side differential matches) or
// are otherwise concurrency-safe.
func (rt *Runtime) RegisterShared(schema *soapdec.Schema, h Handler) {
	rt.Register(schema, func() Handler { return h })
}

func (rt *Runtime) lookupSchema(opLocal string) (*soapdec.Schema, bool) {
	op, ok := rt.ops[opLocal]
	if !ok {
		return nil, false
	}
	return op.schema, true
}

// SetWSDL installs the service description served on GET requests.
func (rt *Runtime) SetWSDL(doc []byte) {
	rt.wsdlMu.Lock()
	rt.wsdl = append([]byte(nil), doc...)
	rt.wsdlMu.Unlock()
}

// Stats returns runtime counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Requests:         rt.requests.Load(),
		FullParses:       rt.fullParses.Load(),
		DiffDecodes:      rt.diffDecodes.Load(),
		ValuesReparsed:   rt.valuesReparsed.Load(),
		MultiRefInlined:  rt.multiRefInlined.Load(),
		SelfCheckFails:   rt.selfCheckFails.Load(),
		Replicas:         rt.reg.Len(),
		ReplicaEvictions: rt.replicaEvictions.Load(),
		DDSKeyEvictions:  rt.ddsKeyEvictions.Load(),
		DeltaApplied:     rt.deltaApplied.Load(),
		DeltaSyncs:       rt.deltaSyncs.Load(),
		DeltaResyncs:     rt.deltaResyncs.Load(),
	}
}

// ResponseStats sums the response stubs' differential counters across
// resident replicas (evicted replicas take their counts with them).
func (rt *Runtime) ResponseStats() core.Stats {
	var sum core.Stats
	rt.reg.Each(func(_ reg.Key, r *replica) {
		r.mu.Lock()
		cs := r.stub.Stats()
		r.mu.Unlock()
		sum.Calls += cs.Calls
		sum.FirstTimeSends += cs.FirstTimeSends
		sum.ContentMatches += cs.ContentMatches
		sum.StructuralMatches += cs.StructuralMatches
		sum.PartialMatches += cs.PartialMatches
		sum.FullSerializations += cs.FullSerializations
		sum.DegradedFTS += cs.DegradedFTS
		sum.BytesSent += cs.BytesSent
		sum.BytesSerialized += cs.BytesSerialized
		sum.ValuesRewritten += cs.ValuesRewritten
		sum.TagShifts += cs.TagShifts
		sum.Shifts += cs.Shifts
		sum.Steals += cs.Steals
		sum.Grows += cs.Grows
		sum.Splits += cs.Splits
	})
	return sum
}

// DebugTemplates snapshots the replica registry in the uniform
// client/server dump format served by /debug/templates and read by
// `bsoap-inspect templates`. Each server entry is a single replica; the
// affinity column carries the conn:N or host:X grouping key.
func (rt *Runtime) DebugTemplates() reg.Dump {
	return rt.reg.Dump("server", nil)
}

// TemplatesHandler serves DebugTemplates as indented JSON — the
// server-side /debug/templates endpoint.
func (rt *Runtime) TemplatesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rt.DebugTemplates())
	})
}

// HTTPHandler adapts the runtime to the transport server: POSTs are
// dispatched as SOAP calls on the caller's replica, GETs answered with
// the WSDL when one is installed.
func (rt *Runtime) HTTPHandler() transport.Handler {
	return func(req *transport.Request) ([]byte, error) {
		if req.Method == "GET" {
			rt.wsdlMu.Lock()
			doc := rt.wsdl
			rt.wsdlMu.Unlock()
			if doc == nil {
				return nil, fmt.Errorf("serverpool: no WSDL installed")
			}
			return doc, nil
		}
		slot, r := rt.acquire(rt.keyFor(req))
		defer rt.release(slot)
		body := req.Body
		if rt.opts.Delta {
			switch req.DeltaMode {
			case transport.DeltaPatch:
				reconstructed, err := rt.applyDelta(r, req)
				if err != nil {
					return nil, err
				}
				body = reconstructed
			case transport.DeltaSync:
				rt.storeDeltaBase(r, req)
			}
		} else if req.DeltaMode == transport.DeltaPatch {
			// A patch arrived but delta is off (e.g. disabled after a
			// restart): demand a full body rather than failing the call.
			rt.deltaResyncs.Add(1)
			return nil, fmt.Errorf("serverpool: delta disabled: %w", wire.ErrDeltaResync)
		}
		return rt.handle(r, body, req.TraceSpan, req.ConnID)
	}
}

// Handle decodes and dispatches one envelope for the given connection
// identity, for callers not going through transport.Server.
func (rt *Runtime) Handle(connID uint64, remoteAddr string, body []byte) ([]byte, error) {
	slot, r := rt.acquire(rt.keyFor(&transport.Request{ConnID: connID, RemoteAddr: remoteAddr}))
	defer rt.release(slot)
	return rt.handle(r, body, 0, connID)
}

func (rt *Runtime) keyFor(req *transport.Request) reg.Key {
	if rt.opts.Affinity == AffinityClient {
		host := req.RemoteAddr
		if c := strings.LastIndexByte(host, ':'); c >= 0 {
			host = host[:c]
		}
		return reg.Key{Sub: host}
	}
	return reg.Key{Conn: req.ConnID}
}

// acquire returns the key's replica with its mutex held and an
// in-flight reference on its registry slot. Finding or creating the
// replica holds only registry locks; the replica lock is taken outside
// them, so a slow request on one replica never blocks lookups of its
// shard siblings.
func (rt *Runtime) acquire(key reg.Key) (*reg.Slot[*replica], *replica) {
	slot, _ := rt.reg.Acquire(key)
	r := slot.Value
	r.mu.Lock()
	return slot, r
}

// release re-accounts the replica's footprint into its cached size,
// unlocks it, and drops the registry reference — the budget-enforcement
// point, and, for an evicted replica, possibly the release that frees
// its arenas. Caller holds r.mu.
func (rt *Runtime) release(slot *reg.Slot[*replica]) {
	r := slot.Value
	if gen := footGen(r.stub.Stats()); gen != r.stubGen {
		r.stubGen = gen
		r.stubFP = int64(r.stub.Store().Footprint())
	}
	fp := r.stubFP + int64(r.respBuf.Cap()) + r.deltaBytes
	if r.differ != nil {
		fp += int64(r.differ.SizeBytes())
	}
	r.size.Store(fp)
	r.mu.Unlock()
	rt.reg.Release(slot)
}

// footGen folds the stub counters that can change its store's footprint
// — template builds and buffer reshaping — into one generation number,
// so the steady state (in-place rewrites, tag shifts) skips the
// chunk-list walk entirely.
func footGen(cs core.Stats) int64 {
	return cs.FirstTimeSends + cs.FullSerializations + cs.Grows + cs.Splits
}

func (rt *Runtime) newReplica() *replica {
	r := &replica{handlers: reg.NewTracker[string, Handler](0)}
	if rt.opts.DifferentialDeserialization {
		r.differ = diffdeser.NewBounded(rt.lookupSchema, rt.opts.MaxKeysPerReplica)
	}
	r.stub = core.NewStub(rt.opts.Core, transport.WriterSink{W: &r.respBuf})
	return r
}

// handle runs one request on r. Caller holds r.mu. clientSpan is the
// span id propagated from the client over the X-BSoap-Trace header (0 =
// untraced caller): when present, every event this request records
// carries the client's id, so `bsoap-inspect trace -correlate` can
// merge the two rings into one cross-process timeline.
func (rt *Runtime) handle(r *replica, body []byte, clientSpan, connID uint64) ([]byte, error) {
	rt.requests.Add(1)

	var span uint64
	traced := trace.Enabled()
	if traced {
		if clientSpan != 0 {
			// Adopt the client's span and link a server-local sub-span id
			// to it: the sub-span (A) disambiguates re-sent client spans,
			// the conn id (B) ties the timeline to a transport connection.
			span = clientSpan
			trace.Rec(span, trace.KindServerSpan, int64(trace.BeginSpan()), int64(connID), 0)
		} else {
			span = trace.BeginSpan()
		}
	}
	decodeStart := time.Now()

	if multiref.HasRefs(body) {
		inlined, err := multiref.Inline(body)
		if err != nil {
			return nil, fmt.Errorf("serverpool: multi-ref: %w", err)
		}
		body = inlined
		rt.multiRefInlined.Add(1)
	}

	var msg *wire.Message
	if r.differ != nil {
		opLocal, perr := server.PeekOperation(body)
		if perr != nil {
			return nil, perr
		}
		var info diffdeser.Info
		var err error
		msg, info, err = r.differ.Decode(opLocal, body)
		if err != nil {
			return nil, fmt.Errorf("serverpool: decode: %w", err)
		}
		rt.metrics.RecordDDSDecode(!info.FullParse, info.ValuesReparsed)
		if d := r.differ.Evictions() - r.keyEvictions; d > 0 {
			r.keyEvictions += d
			rt.ddsKeyEvictions.Add(d)
			rt.metrics.AddDDSKeyEvictions(d)
		}
		var fast int64
		if info.FullParse {
			rt.fullParses.Add(1)
		} else {
			fast = 1
			rt.diffDecodes.Add(1)
			rt.valuesReparsed.Add(int64(info.ValuesReparsed))
		}
		if traced {
			trace.Rec(span, trace.KindServerDecode, fast, int64(info.ValuesReparsed), int64(len(body)))
		}
		if rt.opts.SelfCheck && !info.FullParse {
			if err := rt.selfCheck(body, msg); err != nil {
				rt.selfCheckFails.Add(1)
				return nil, err
			}
		}
	} else {
		res, derr := soapdec.Decode(body, rt.lookupSchema, false)
		if derr != nil {
			return nil, fmt.Errorf("serverpool: decode: %w", derr)
		}
		msg = res.Msg
		rt.fullParses.Add(1)
		rt.metrics.RecordDDSDecode(false, 0)
		if traced {
			trace.Rec(span, trace.KindServerDecode, 0, 0, int64(len(body)))
		}
	}

	handlerStart := time.Now()
	decodeNs := handlerStart.Sub(decodeStart).Nanoseconds()
	rt.metrics.Stages.Observe(trace.StageDecode, decodeNs, span)
	if traced {
		trace.Rec(span, trace.KindStage, int64(trace.StageDecode), decodeNs, 0)
	}

	opLocal := msg.Operation()
	h, ok := r.handlers.Lookup(opLocal)
	if !ok {
		op := rt.ops[opLocal]
		if op == nil {
			return nil, fmt.Errorf("serverpool: no handler for %s", opLocal)
		}
		h = op.factory()
		r.handlers.Note(opLocal, h)
	}
	resp, err := h(msg)
	respondStart := time.Now()
	handlerNs := respondStart.Sub(handlerStart).Nanoseconds()
	rt.metrics.Stages.Observe(trace.StageHandler, handlerNs, span)
	if traced {
		trace.Rec(span, trace.KindStage, int64(trace.StageHandler), handlerNs, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("serverpool: %s: %w", opLocal, err)
	}
	if resp == nil {
		return nil, nil
	}

	r.respBuf.Reset()
	if span != 0 {
		// The response stub's serialization events join this request's
		// span instead of allocating their own.
		r.stub.SetTraceSpan(span)
	}
	ci, err := r.stub.Call(resp)
	respondNs := time.Since(respondStart).Nanoseconds()
	rt.metrics.Stages.Observe(trace.StageRespond, respondNs, span)
	if err != nil {
		return nil, fmt.Errorf("serverpool: response serialization: %w", err)
	}
	if traced {
		trace.Rec(span, trace.KindStage, int64(trace.StageRespond), respondNs, 0)
		trace.Rec(span, trace.KindServerRespond, int64(ci.Match), int64(r.respBuf.Len()), 0)
	}
	out := make([]byte, r.respBuf.Len())
	copy(out, r.respBuf.Bytes())
	return out, nil
}

// selfCheck re-decodes body from scratch and compares every leaf with
// the fast-path result. The reference parse shares no state with the
// differential one, so agreement means the region diff reconstructed
// the exact message a cold parse would have produced.
func (rt *Runtime) selfCheck(body []byte, got *wire.Message) error {
	res, err := soapdec.Decode(body, rt.lookupSchema, false)
	if err != nil {
		return fmt.Errorf("serverpool: self-check reference parse: %w", err)
	}
	want := res.Msg
	if got.Operation() != want.Operation() {
		return fmt.Errorf("serverpool: self-check: operation %q != %q", got.Operation(), want.Operation())
	}
	if got.NumLeaves() != want.NumLeaves() {
		return fmt.Errorf("serverpool: self-check: %d leaves != %d", got.NumLeaves(), want.NumLeaves())
	}
	for i := 0; i < want.NumLeaves(); i++ {
		if got.LeafTag(i) != want.LeafTag(i) {
			return fmt.Errorf("serverpool: self-check: leaf %d tag %q != %q", i, got.LeafTag(i), want.LeafTag(i))
		}
		gk, wk := got.LeafType(i).Kind, want.LeafType(i).Kind
		if gk != wk {
			return fmt.Errorf("serverpool: self-check: leaf %d kind %v != %v", i, gk, wk)
		}
		var same bool
		switch wk {
		case wire.Int:
			same = got.LeafInt(i) == want.LeafInt(i)
		case wire.Double:
			same = got.LeafDouble(i) == want.LeafDouble(i)
		case wire.String:
			same = got.LeafString(i) == want.LeafString(i)
		case wire.Bool:
			same = got.LeafBool(i) == want.LeafBool(i)
		}
		if !same {
			return fmt.Errorf("serverpool: self-check: leaf %d (%s) value mismatch", i, want.LeafTag(i))
		}
	}
	return nil
}
