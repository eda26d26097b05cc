// Package pool is the concurrent client runtime for differential
// serialization: many goroutines share one Pool and every Call still
// benefits from template reuse.
//
// The paper measures its gains through a single stub on a single
// connection. Scaling that to a production client means solving three
// problems the single-stub model sidesteps:
//
//   - Connections: a bounded sender pool with checkout/checkin, lazy
//     dialing, and automatic redial (exponential backoff + jitter) when
//     a connection breaks mid-send.
//   - Templates: a sharded store (see ShardedStore) so templates are
//     owned by the runtime, not by goroutines — a new worker's first
//     call of an operation another worker has already sent starts warm
//     instead of paying a first-time send.
//   - Observability: an atomic Metrics registry counting match-class
//     rates, bytes saved by diffing, shift/steal events, pool health
//     and latency, exposed as an expvar-style JSON endpoint.
package pool

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/replica"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// Options configure a Pool.
type Options struct {
	// Addr is the endpoint to dial (lazily, one connection per pool
	// slot as load requires).
	Addr string
	// Sender configures the HTTP framing of pooled connections.
	Sender transport.SenderOptions
	// Dial overrides Addr with a custom connection factory (tests,
	// in-process benchmarking). The returned sink is closed on pool
	// shutdown when it implements io.Closer.
	Dial func() (core.Sink, error)

	// Size bounds concurrent connections (default 4).
	Size int
	// Config tunes the differential-serialization engines.
	Config core.Config
	// Shards is the template-store shard count (default 16).
	Shards int
	// Replicas bounds per-(operation,signature) engine replicas
	// (default 4): the parallelism ceiling for a single hot operation.
	Replicas int
	// MaxTemplateBytes budgets the template store's memory: the sum of
	// all replica sets' template footprints is kept at or below it by
	// evicting least-recently-used entries (with per-operation fairness
	// floors). It is the store's only bound: an operation keeps a warm
	// template for every message shape it sends until the bytes run
	// out. Zero means DefaultMaxTemplateBytes. See README "Sizing
	// template memory".
	MaxTemplateBytes int64

	// MaxRetries is how many times a Call is retried on a send error
	// after repairing the connection (default 1). The engine preserves
	// dirty bits across failed sends, so retries re-serialize exactly
	// the pending changes.
	MaxRetries int
	// DialAttempts bounds connection-repair attempts per Call (default
	// 4), spaced by RedialBackoff doubling up to RedialBackoffMax with
	// 50% jitter (defaults 20ms / 1s).
	DialAttempts     int
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// RetryBudget bounds the total wall-clock one Call may spend on
	// connection repair, backoff sleeps and retries (default 10s).
	// Together with MaxRetries and DialAttempts it makes every failure
	// path bounded in both count and time: when the budget runs out the
	// Call fails with ErrRetryBudgetExhausted instead of redialing on.
	RetryBudget time.Duration

	// PipelineDepth enables the pipelined async call path: each pool
	// connection keeps up to this many requests in flight (HTTP/1.x
	// pipelining — responses arrive strictly in request order), CallAsync
	// returns Futures, and Call routes through CallAsync + Wait. Zero
	// (the default) keeps the serial request/response path.
	//
	// Requires a dialed transport (Options.Addr) and a responding server:
	// every pipelined request reads exactly one response, regardless of
	// Sender.ExpectResponse. Incompatible with Options.Dial.
	PipelineDepth int

	// Delta turns on differential transmission (shorthand for
	// Sender.Delta): full sends negotiate an X-BSoap-Delta sync with the
	// server, after which warm content-match calls go out as compact
	// patch frames instead of full bodies. Negotiation needs responses —
	// a pipelined pool always reads them; a serial pool must also set
	// Sender.ExpectResponse or every send simply stays full (lossless).
	Delta bool
}

// DefaultMaxTemplateBytes is the template budget a pool gets when
// Options.MaxTemplateBytes is zero: 64 MiB. One engine replica's
// template accounts a 33 KB arena floor plus about 100 bytes per
// double or int leaf (280 per MIO element): 39 KB for a 100-element
// array, 130 KB for 1000 doubles, 1 MB for 10000. The default thus
// keeps about 1600 replicas of 100-element messages, or 500 of
// 1000-double ones, warm at once — the pipelined-mix benchmark's
// 16 shapes at four replicas each need under 3 MB — while staying a
// hard ceiling for a client that meets an unbounded stream of shapes.
// Nothing is sized from it up front; it only caps growth.
const DefaultMaxTemplateBytes = 64 << 20

func (o Options) withDefaults() Options {
	if o.Size <= 0 {
		o.Size = 4
	}
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.Replicas <= 0 {
		o.Replicas = 4
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 1
	}
	if o.DialAttempts <= 0 {
		o.DialAttempts = 4
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 20 * time.Millisecond
	}
	if o.RedialBackoffMax <= 0 {
		o.RedialBackoffMax = time.Second
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 10 * time.Second
	}
	return o
}

// Pool is a concurrent differential-serialization client. All Pool
// methods are safe for concurrent use by any number of goroutines.
//
// Messages are not: a *wire.Message carries unsynchronized values and
// dirty bits, so each message must be confined to one in-flight Call at
// a time. Goroutines share the Pool (and through it the templates), not
// message objects — give each worker its own messages, as the loadgen
// and the stress tests do. Distinct messages may be passed to Call
// concurrently without restriction.
type Pool struct {
	opts    Options
	senders *senderPool
	store   *ShardedStore
	metrics *Metrics
}

// New builds a Pool. Connections are not established until calls need
// them.
func New(opts Options) (*Pool, error) {
	o := opts.withDefaults()
	if o.Delta {
		o.Sender.Delta = true
	}
	dial := o.Dial
	if dial == nil {
		if o.Addr == "" {
			return nil, fmt.Errorf("pool: Options.Addr or Options.Dial required")
		}
		addr, sopts := o.Addr, o.Sender
		dial = func() (core.Sink, error) { return transport.Dial(addr, sopts) }
	} else if o.PipelineDepth > 0 {
		return nil, fmt.Errorf("pool: Options.PipelineDepth requires a dialed transport (Options.Addr, not Options.Dial)")
	}
	m := NewMetrics()
	m.pipelineDepth.Store(int64(o.PipelineDepth))
	return &Pool{
		opts:    o,
		senders: newSenderPool(o.Size, dial, o, m),
		store:   NewShardedStore(o.Shards, o.Replicas, o.MaxTemplateBytes, o.Config, m),
		metrics: m,
	}, nil
}

// ErrRetryBudgetExhausted is wrapped by Call when a call's repair/retry
// work exceeds Options.RetryBudget: the failure is bounded in wall-clock,
// not just attempt count.
var ErrRetryBudgetExhausted = fmt.Errorf("pool: retry budget exhausted")

// Call serializes and sends m through a pooled connection, reusing the
// shared template for m's operation and structure. On a send error the
// connection is repaired (redial with backoff) and the call retried up
// to MaxRetries times — all within the RetryBudget wall-clock bound —
// before the error is returned. A send that fails mid-template marks
// that template suspect in the engine; the retry (or the structure's
// next call) degrades to a full first-time serialization rather than
// trusting possibly half-delivered bytes.
//
// Call is safe for concurrent use with distinct messages; a given
// message must not have two Calls in flight at once (see Pool).
func (p *Pool) Call(m *wire.Message) (core.CallInfo, error) {
	if p.opts.PipelineDepth > 0 {
		// Pipelined pools route sync calls through the async path so
		// every request flows through one ordered pipeline per
		// connection. CallAsync + resolve do all the accounting.
		f, err := p.CallAsync(m)
		if err != nil {
			return core.CallInfo{}, err
		}
		return f.Wait()
	}
	start := p.senders.now()
	deadline := start.Add(p.opts.RetryBudget)
	var span uint64
	if trace.Enabled() {
		span = trace.BeginSpan()
	}
	ps, waited, err := p.senders.checkout()
	if err != nil {
		return core.CallInfo{}, err
	}
	defer p.senders.checkin(ps)
	ckNs := p.senders.now().Sub(start).Nanoseconds()
	p.metrics.Stages.Observe(trace.StageCheckout, ckNs, span)
	if span != 0 {
		w := int64(0)
		if waited {
			w = 1
		}
		trace.Rec(span, trace.KindPoolCheckout, w, 0, 0)
		trace.Rec(span, trace.KindStage, int64(trace.StageCheckout), ckNs, 0)
	}

	var ci core.CallInfo
	for attempt := 0; ; attempt++ {
		// Repair the connection before taking a template replica, so
		// redial backoff sleeps never hold a replica lock: other callers
		// of the same hot operation proceed through healthy pool slots
		// while this one dials. The replica is likewise released before
		// any retry's repair. (A retry may therefore land on a different
		// replica; acquire detects that and forces a full value rewrite.)
		var sink core.Sink
		if span != 0 {
			// Attribute a repair redial of the slot's existing connection
			// to this call's span before ensure runs.
			if ts, ok := ps.sink.(*transport.Sender); ok {
				ts.TraceSpan = span
			}
		}
		sink, err = p.senders.ensure(ps, deadline)
		if err != nil {
			break
		}
		if span != 0 {
			if ts, ok := sink.(*transport.Sender); ok {
				ts.TraceSpan = span
			}
		}
		r := p.store.acquire(m, span)
		r.sink.s = sink
		r.sink.wireNs = 0
		if span != 0 {
			r.stub.SetTraceSpan(span)
		}
		callStart := p.senders.now()
		ci, err = r.stub.Call(m)
		callNs := p.senders.now().Sub(callStart).Nanoseconds()
		wireNs := r.sink.wireNs
		p.store.release(r)
		if err == nil {
			// Attribute the stub's Call time: what was spent inside the
			// transport sink is wire, patch-frame assembly is delta encode,
			// the rest is serialization work.
			p.metrics.Stages.Observe(trace.StageSerialize, callNs-wireNs-ci.DeltaEncodeNs, span)
			p.metrics.Stages.Observe(trace.StageWire, wireNs, span)
			if ci.DeltaEncodeNs > 0 {
				p.metrics.Stages.Observe(trace.StageDeltaEncode, ci.DeltaEncodeNs, span)
			}
			if span != 0 {
				trace.Rec(span, trace.KindStage, int64(trace.StageSerialize), callNs-wireNs-ci.DeltaEncodeNs, 0)
				trace.Rec(span, trace.KindStage, int64(trace.StageWire), wireNs, 0)
				if ci.DeltaEncodeNs > 0 {
					trace.Rec(span, trace.KindStage, int64(trace.StageDeltaEncode), ci.DeltaEncodeNs, 0)
				}
			}
			break
		}
		ps.broken = true
		if attempt >= p.opts.MaxRetries {
			break
		}
		if !p.senders.now().Before(deadline) {
			err = fmt.Errorf("pool: send failed and no budget to retry: %w (last error: %v)",
				ErrRetryBudgetExhausted, err)
			break
		}
		p.metrics.retries.Add(1)
		if span != 0 {
			trace.Rec(span, trace.KindPoolRetry, int64(attempt+1), 0, 0)
		}
	}
	if errors.Is(err, ErrRetryBudgetExhausted) {
		p.metrics.retryBudgetExhausted.Add(1)
	}
	if span != 0 && err != nil && ci.Span == 0 {
		// The call never reached the engine (no healthy connection):
		// close the span from the pool layer. A=-1 marks "no match
		// classification happened".
		trace.Rec(span, trace.KindCallErr, -1, 0, 0)
	}
	elapsed := p.senders.now().Sub(start)
	p.metrics.RecordCall(ci, err, elapsed)
	if span != 0 && err == nil {
		trace.ObserveCall(span, int64(elapsed))
	}
	return ci, err
}

// Metrics exposes the pool's registry (for serving the JSON endpoint).
func (p *Pool) Metrics() *Metrics { return p.metrics }

// Stats snapshots the registry.
func (p *Pool) Stats() Stats { return p.metrics.Snapshot() }

// TemplateCount reports templates resident across all shards.
func (p *Pool) TemplateCount() int { return p.store.TemplateCount() }

// Entries reports distinct (operation, signature) keys seen.
func (p *Pool) Entries() int { return p.store.Entries() }

// DebugTemplates snapshots the live template store in the uniform
// client/server dump format (see ShardedStore.DebugSnapshot).
func (p *Pool) DebugTemplates() replica.Dump { return p.store.DebugSnapshot() }

// TemplatesHandler serves the live template store as indented JSON — the
// /debug/templates endpoint, in the same shape the server side serves
// so `bsoap-inspect templates` renders both.
func (p *Pool) TemplatesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.DebugTemplates())
	})
}

// Close shuts the pool down: blocked and future checkouts fail, idle
// connections close now, checked-out ones as they return.
func (p *Pool) Close() error {
	p.senders.close()
	return nil
}
