package pool

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"bsoap/internal/core"
	reg "bsoap/internal/replica"
	"bsoap/internal/trace"
	"bsoap/internal/wire"
)

// ShardedStore is the concurrent template store at the heart of the
// pool, built on the unified replica registry (internal/replica): entry
// lookup, sharding, in-flight refcounts and the byte budget — the
// store's one memory bound — all live there; this file owns what is
// client-specific — the engine replicas inside an entry, message
// affinity, and the stale-rebind protocol.
//
// Entries are keyed by (operation, structural signature). Within one
// entry the store holds up to Replicas independent engine replicas (a
// core.Stub with a single-key store each). A call checks out one
// replica, holds its lock across classify + diff + send (the template's
// bytes are on the wire during the send, so they cannot be mutated
// concurrently), and releases it. Replicas are what lets a hot
// operation scale: R goroutines diff and send R copies of the same
// template in parallel, while the total first-time-send cost stays
// bounded at R per structure.
//
// Checkout prefers the replica a message used last (affinity by message
// identity), preserving the engine's dirty-bit classification. Because
// dirty bits live on the message while template bytes live per replica,
// the entry also tracks which replica served each message last: a
// message returning to an earlier replica after being served elsewhere
// is forced through a full value rewrite (see acquire), or its
// untouched resend would put that replica's stale bytes on the wire.
//
// Eviction by the byte budget condemns an entry in the registry; calls
// already holding one of its engines complete unaffected, and the
// registry releases the entry's chunk arenas when the last in-flight
// call returns (previously eviction could only drop references and wait
// for the garbage collector). A message whose entry was evicted simply
// builds a fresh one on its next call: a degraded first-time send, never
// a diff against released bytes.
type ShardedStore struct {
	reg      *reg.Registry[*storeEntry]
	replicas int
	cfg      core.Config
	metrics  *Metrics
}

// storeEntry is the replica set for one (operation, signature).
type storeEntry struct {
	mu      sync.Mutex
	engines []*engine
	// last records the engine that most recently served each message.
	// A message whose calls alternate between engines has template
	// bytes in several of them, only the last of which is current. The
	// tracker is bounded: at capacity it resets wholesale, and acquire
	// treats an unknown last server as a possible bounce.
	last *reg.Tracker[*wire.Message, *engine]
	// size caches the entry's template footprint for the registry's
	// budget accounting: updated by release while the engine lock is
	// held, read lock-free by SizeBytes under registry locks.
	size atomic.Int64
}

// SizeBytes reports the cached template footprint (replica.Entry).
func (e *storeEntry) SizeBytes() int { return int(e.size.Load()) }

// ReleaseArenas returns every engine's template arenas to the chunk
// pool (replica.Entry). The registry calls it once the evicted entry's
// last in-flight call has returned; the engine locks serialize against
// a late MarkSuspect from a pipelined response, which afterwards just
// misses its store lookup.
func (e *storeEntry) ReleaseArenas() {
	e.mu.Lock()
	engines := e.engines
	e.mu.Unlock()
	for _, r := range engines {
		r.mu.Lock()
		r.stub.Store().ReleaseAll()
		r.mu.Unlock()
	}
}

// engine is one lockable differential-serialization engine: a stub
// whose sink is swapped to the checked-out connection per call.
type engine struct {
	mu   sync.Mutex
	stub *core.Stub
	sink swapSink
	// slot is the registry slot of the entry this engine belongs to;
	// stable for the entry's lifetime, it is how release finds its way
	// back to the registry's refcount.
	slot *reg.Slot[*storeEntry]
	// bound is the message identity currently bound to the template,
	// used to count rebinds (metrics only; the engine tracks its own
	// binding).
	bound *wire.Message
	// fp is the engine's last-accounted template footprint, guarded by
	// mu; release folds the delta into the entry's cached size. gen is
	// the stub-stats generation at which fp was computed: the footprint
	// walk is skipped while the counters that can change it hold still.
	fp  int64
	gen int64
}

// footGen folds the stub counters that can change its store's
// footprint — template builds and buffer reshaping — into one
// generation number. In-place rewrites, tag shifts, shifts, and steals
// reuse existing bytes, so the steady state keeps the generation (and
// the accounted footprint) constant without walking the chunk lists on
// every release.
func footGen(cs core.Stats) int64 {
	return cs.FirstTimeSends + cs.FullSerializations + cs.Grows + cs.Splits
}

// swapSink routes the stub's output to whatever connection the call
// checked out. It is set while the replica lock is held.
type swapSink struct {
	s core.Sink
	// wireNs accumulates time spent inside the sink during the current
	// call — the wire stage of the client's latency attribution, split
	// out of the stub's total Call time. Reset by the pool before each
	// call; guarded by the engine lock like s.
	wireNs int64
}

func (w *swapSink) Send(bufs net.Buffers) error {
	start := time.Now()
	err := w.s.Send(bufs)
	w.wireNs += time.Since(start).Nanoseconds()
	return err
}

// swapSink also implements core.DeltaSink by forwarding to the
// checked-out connection when it is delta-capable. The stub probes
// capability through DeltaEpoch — a connection whose sink is not a
// DeltaSink answers false, so the stub never encodes a patch for it —
// which keeps delta strictly per-connection: a pool mixing delta and
// plain sinks degrades per call, losslessly.

func (w *swapSink) DeltaEpoch(tid uint64) (uint64, bool) {
	if ds, ok := w.s.(core.DeltaSink); ok {
		return ds.DeltaEpoch(tid)
	}
	return 0, false
}

func (w *swapSink) SendFull(bufs net.Buffers, tid, epoch uint64) error {
	ds, ok := w.s.(core.DeltaSink)
	if !ok {
		return w.Send(bufs)
	}
	start := time.Now()
	err := ds.SendFull(bufs, tid, epoch)
	w.wireNs += time.Since(start).Nanoseconds()
	return err
}

func (w *swapSink) SendDelta(bufs net.Buffers, tid, newEpoch uint64) error {
	ds, ok := w.s.(core.DeltaSink)
	if !ok {
		// Unreachable: the stub only encodes a patch after DeltaEpoch
		// answered true, which requires a DeltaSink underneath.
		return fmt.Errorf("pool: SendDelta on a non-delta sink")
	}
	start := time.Now()
	err := ds.SendDelta(bufs, tid, newEpoch)
	w.wireNs += time.Since(start).Nanoseconds()
	return err
}

// NewShardedStore builds a store with the given shard count (rounded up
// to a power of two, default 16), per-key replica limit (default 4),
// and template memory budget in bytes (default DefaultMaxTemplateBytes).
func NewShardedStore(shards, replicas int, maxBytes int64, cfg core.Config, m *Metrics) *ShardedStore {
	if shards <= 0 {
		shards = 16
	}
	if replicas <= 0 {
		replicas = 4
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxTemplateBytes
	}
	if m == nil {
		m = NewMetrics()
	}
	s := &ShardedStore{
		replicas: replicas,
		cfg:      cfg,
		metrics:  m,
	}
	s.reg = reg.NewRegistry(reg.RegistryOptions[*storeEntry]{
		Shards:   shards,
		MaxBytes: maxBytes,
		New: func(reg.Key) *storeEntry {
			return &storeEntry{last: reg.NewTracker[*wire.Message, *engine](0)}
		},
		OnEvict: func(key reg.Key, reason reg.Reason, bytes int64) {
			m.evictions.Add(1)
			if reason == reg.ReasonBudget {
				m.budgetEvictions.Add(1)
			}
			if trace.Enabled() {
				trace.Rec(0, trace.KindReplicaEvict, trace.OpID(key.Group), int64(reason), bytes)
			}
		},
	})
	counters := s.reg.Counters
	m.templateSource.Store(&counters)
	return s
}

// acquire returns a locked engine for m's operation+signature, with an
// in-flight reference held on its registry entry. The caller must
// release it after the call completes. m must not have another call in
// flight (see Pool's per-message confinement contract). span is the
// call's flight-recorder span (zero when tracing is off).
func (s *ShardedStore) acquire(m *wire.Message, span uint64) *engine {
	key := reg.Key{Group: m.Operation(), Sub: m.Signature()}
	slot, _ := s.reg.Acquire(key)
	e := slot.Value
	aff := reg.Affinity64(reflect.ValueOf(m).Pointer())

	e.mu.Lock()
	var r *engine
	locked := false
	if n := len(e.engines); n > 0 {
		// Preferred replica first, then any free one.
		if pref := e.engines[aff%uint64(n)]; pref.mu.TryLock() {
			r, locked = pref, true
		} else {
			for _, c := range e.engines {
				if c.mu.TryLock() {
					r, locked = c, true
					break
				}
			}
		}
	}
	if r == nil && len(e.engines) < s.replicas {
		r = &engine{slot: slot}
		r.stub = core.NewStub(s.cfg, &r.sink)
		r.mu.Lock()
		locked = true
		e.engines = append(e.engines, r)
	}
	if r == nil {
		// Every replica busy and the set is full: queue on the preferred
		// one outside the entry lock.
		r = e.engines[aff%uint64(len(e.engines))]
	}
	prev, _ := e.last.Lookup(m)
	e.last.Note(m, r)
	e.mu.Unlock()

	if !locked {
		r.mu.Lock()
	}
	if r.bound != m {
		if r.bound != nil {
			s.metrics.templateRebinds.Add(1)
		}
		r.bound = m
	} else if prev != r {
		// r served m at some point, but not most recently (or the
		// tracking map was reset): values m serialized through another
		// replica since then are missing from r's template bytes, yet the
		// engine sees its own binding intact and would classify an
		// untouched m as a content match — resending the stale bytes.
		// Force every value dirty so this call rewrites the template in
		// full (tag generation is still skipped).
		m.MarkAllDirty()
		s.metrics.staleRebinds.Add(1)
		if span != 0 {
			trace.Rec(span, trace.KindStaleRebind, trace.OpID(key.Group), 0, 0)
		}
	}
	return r
}

// release returns an engine acquired by acquire: it re-accounts the
// engine's template footprint into the entry's cached size, unlocks the
// engine, and drops the registry reference — the budget-enforcement
// point, and, for a condemned entry, possibly the release that frees
// its arenas.
func (s *ShardedStore) release(r *engine) {
	if gen := footGen(r.stub.Stats()); gen != r.gen {
		r.gen = gen
		fp := int64(r.stub.Store().Footprint())
		r.slot.Value.size.Add(fp - r.fp)
		r.fp = fp
	}
	r.sink.s = nil
	r.mu.Unlock()
	s.reg.Release(r.slot)
}

// markSuspect poisons r's template for (op, sig), if it still holds one.
// The async call path uses it when a pipelined response fails after the
// submit succeeded: the replica was released long ago, so the suspicion
// arrives late — safe, because a first-time send serializes from live
// values regardless of dirty bits, and any call that raced in between
// diffed against bytes that genuinely made it onto the wire before the
// connection died. If the entry was evicted and its arenas released in
// the meantime, the lookup simply misses. span tags the flight-recorder
// event (0 = untraced).
func (s *ShardedStore) markSuspect(r *engine, op, sig string, span uint64) {
	r.mu.Lock()
	found := r.stub.MarkSuspect(op, sig)
	r.mu.Unlock()
	if found && span != 0 {
		trace.Rec(span, trace.KindTemplateSuspect, trace.OpID(op), 0, 0)
	}
}

// TemplateCount sums the stored templates across every entry and
// replica (each replica's single-key store holds at most
// MaxTemplatesPerOp; in practice one).
func (s *ShardedStore) TemplateCount() int {
	n := 0
	s.reg.Each(func(_ reg.Key, e *storeEntry) {
		e.mu.Lock()
		for _, r := range e.engines {
			n += r.stub.Store().TemplateCount()
		}
		e.mu.Unlock()
	})
	return n
}

// DebugSnapshot dumps the registry in the uniform client/server format
// served by /debug/templates and read by `bsoap-inspect templates`. Rows
// whose engines are mid-call report the registry's accounted bytes
// without blocking on the engine locks.
func (s *ShardedStore) DebugSnapshot() reg.Dump {
	return s.reg.Dump("client", func(e *storeEntry, d *reg.DebugEntry) {
		e.mu.Lock()
		d.Replicas = len(e.engines)
		e.mu.Unlock()
	})
}

// Entries reports the number of distinct (operation, signature) keys.
func (s *ShardedStore) Entries() int {
	return s.reg.Len()
}
