package transport

import (
	"fmt"
	"net"
	"sync"

	"bsoap/internal/wire"
)

// ErrPipelineClosed is the sticky error a Pipeline fails with when it is
// shut down by Close rather than by an I/O error: pendings still in
// flight (and any later SendAsync) resolve with it.
var ErrPipelineClosed = fmt.Errorf("transport: pipeline closed")

// Pending is the completion handle of one pipelined request: it resolves
// once the request's response has been read off the connection, or once
// the pipeline fails (every Pending resolves — a broken connection fails
// all of them rather than leaving any waiter blocked forever).
type Pending struct {
	done   chan struct{}
	status int
	err    error
}

// Done returns a channel that is closed when the outcome is available;
// after that Wait returns without blocking.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the request's response has been read (or the
// pipeline failed) and returns the outcome: nil for a 2xx response, an
// error for a non-2xx status or a transport failure.
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

// Status returns the response's HTTP status code, valid once Done is
// closed (zero when the pipeline failed before this response arrived).
func (p *Pending) Status() int {
	<-p.done
	return p.status
}

func (p *Pending) complete(status int, err error) {
	p.status = status
	p.err = err
	close(p.done)
}

// Pipeline layers depth-bounded HTTP request pipelining over one dialed
// Sender: up to depth requests ride the connection before the first
// response is read, and a dedicated reader goroutine completes the
// per-request Pending handles strictly in submission order (HTTP/1.x
// responses carry no request id — FIFO is the protocol's matching rule).
//
// The write itself happens on the submitter's goroutine under an
// internal mutex, not on a writer goroutine: the engine's scatter-gather
// buffers point straight into template chunks that are only stable while
// the caller holds its template replica, so handing them to another
// goroutine would force a copy on every send. Acquisition order under
// the mutex equals wire order equals completion order.
//
// Failure semantics: the first write or read error (and Close) breaks
// the pipeline permanently. Every Pending already submitted resolves
// with the response it got or with the sticky error; later SendAsync
// calls fail immediately. The Sender underneath can then be Redialed
// and wrapped in a fresh Pipeline. A non-2xx response fails only its own
// Pending — the response was fully read, so the connection stays usable.
type Pipeline struct {
	s     *Sender
	depth int

	// OnStall, when set, is invoked each time a SendAsync must wait for
	// in-flight responses because the pipeline is at depth. OnComplete is
	// invoked exactly once per Pending as it resolves (success, error, or
	// pipeline failure), before the Pending's waiter is woken, so a gauge
	// it decrements has settled when Wait returns. Both must be set before
	// the first SendAsync and must be safe for concurrent use.
	OnStall    func()
	OnComplete func()

	// writeMu serializes request writes and queue pushes, so the pending
	// queue's order is exactly the wire's. The reader also takes it once,
	// after the sticky error is set, to fence out in-progress submits
	// before failing the queue's remainder.
	writeMu sync.Mutex
	queue   chan *Pending
	slots   chan struct{}

	broken chan struct{} // closed with the first failure
	done   chan struct{} // closed when the reader goroutine exits

	errMu sync.Mutex
	err   error
}

// NewPipeline wraps s for pipelined use, starting the reader goroutine.
// The Sender must not be used directly (Send/Roundtrip/streaming) until
// the pipeline is closed: its connection and read buffer now belong to
// the reader. depth < 1 is treated as 1.
func NewPipeline(s *Sender, depth int) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	pl := &Pipeline{
		s:      s,
		depth:  depth,
		queue:  make(chan *Pending, depth),
		slots:  make(chan struct{}, depth),
		broken: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go pl.readLoop()
	return pl
}

// Sender returns the wrapped Sender.
func (pl *Pipeline) Sender() *Sender { return pl.s }

// Depth returns the configured in-flight bound.
func (pl *Pipeline) Depth() int { return pl.depth }

// InFlight reports how many requests are currently on the wire awaiting
// their response (approximate under concurrency).
func (pl *Pipeline) InFlight() int { return len(pl.slots) }

// Err returns the sticky error, nil while the pipeline is healthy.
func (pl *Pipeline) Err() error {
	pl.errMu.Lock()
	defer pl.errMu.Unlock()
	return pl.err
}

// Broken reports whether the pipeline has failed or been closed.
func (pl *Pipeline) Broken() bool { return pl.Err() != nil }

// fail records the first error and wakes everything blocked on pipeline
// health; later calls are no-ops (first error wins).
func (pl *Pipeline) fail(err error) {
	pl.errMu.Lock()
	if pl.err == nil {
		pl.err = err
		close(pl.broken)
	}
	pl.errMu.Unlock()
}

// SendAsync frames bufs as one request, puts it on the wire, and returns
// a Pending that resolves when its in-order response has been read. The
// write runs on the caller's goroutine (see the type comment); when
// depth requests are already in flight, SendAsync blocks until a
// response frees a slot, reporting the stall through OnStall. A write
// error breaks the pipeline and is returned directly — no Pending is
// created for a request that never got onto the wire.
func (pl *Pipeline) SendAsync(bufs net.Buffers) (*Pending, error) {
	return pl.sendAsync(bufs, deltaAsyncNone, 0, 0)
}

// SendFullAsync is SendAsync for a delta-annotated full-body send: the
// request carries an X-BSoap-Delta sync header so a capable peer stores
// the body as the patch base for tid at epoch. With Delta off it is
// identical to SendAsync.
func (pl *Pipeline) SendFullAsync(bufs net.Buffers, tid, epoch uint64) (*Pending, error) {
	if !pl.s.opts.Delta {
		return pl.sendAsync(bufs, deltaAsyncNone, 0, 0)
	}
	return pl.sendAsync(bufs, deltaAsyncSync, tid, epoch)
}

// SendDeltaAsync is SendAsync for a pre-encoded patch frame. The
// resulting Pending resolves with wire.ErrDeltaResync when the server
// demands resynchronization (after the sender's sync map has been
// cleared); the connection and pipeline stay healthy, so the caller can
// resubmit the call as a full-body send on the same pipeline.
func (pl *Pipeline) SendDeltaAsync(bufs net.Buffers, tid, newEpoch uint64) (*Pending, error) {
	return pl.sendAsync(bufs, deltaAsyncPatch, tid, newEpoch)
}

// deltaAsync selects the delta annotation of one pipelined submit.
type deltaAsync uint8

const (
	deltaAsyncNone  deltaAsync = iota // plain request, no delta header
	deltaAsyncSync                    // full body + sync header (store as base)
	deltaAsyncPatch                   // body is a patch frame
)

func (pl *Pipeline) sendAsync(bufs net.Buffers, da deltaAsync, tid, epoch uint64) (*Pending, error) {
	select {
	case pl.slots <- struct{}{}:
	default:
		if pl.OnStall != nil {
			pl.OnStall()
		}
		select {
		case pl.slots <- struct{}{}:
		case <-pl.broken:
			return nil, pl.Err()
		}
	}
	pl.writeMu.Lock()
	if err := pl.Err(); err != nil {
		pl.writeMu.Unlock()
		// The slot taken above belongs to no request; hand it back so the
		// pipeline's accounting stays exact for any concurrent submitter
		// still racing the failure.
		<-pl.slots
		return nil, err
	}
	switch da {
	case deltaAsyncSync:
		// Header set + write happen under writeMu, so the pending header
		// cannot leak onto a concurrent submit's request. noteSync here is
		// the same write-order optimism as the serial path: the queue push
		// below is the wire order.
		b := append(pl.s.deltaHdrBuf[:0], deltaHeaderPrefix...)
		b = wire.AppendDeltaSync(b, tid, epoch)
		b = append(b, '\r', '\n')
		pl.s.deltaHdr = b
		pl.s.delta.noteSync(tid, epoch)
	case deltaAsyncPatch:
		b := append(pl.s.deltaHdrBuf[:0], deltaHeaderPrefix...)
		b = append(b, wire.DeltaValPatch...)
		b = append(b, '\r', '\n')
		pl.s.deltaHdr = b
		pl.s.delta.noteSync(tid, epoch)
	}
	if err := pl.s.writeRequest(bufs); err != nil {
		pl.fail(err)
		pl.writeMu.Unlock()
		return nil, err
	}
	p := &Pending{done: make(chan struct{})}
	pl.queue <- p // a slot is held, so the queue (cap = depth) has room
	pl.writeMu.Unlock()
	return p, nil
}

// readLoop is the ordered reader: one response per queued Pending, FIFO.
func (pl *Pipeline) readLoop() {
	defer close(pl.done)
	var resp Response // private parse state; next-read-invalidates
	for {
		select {
		case <-pl.broken:
			pl.drainFail()
			return
		case p := <-pl.queue:
			pl.s.armRead()
			if err := ReadResponseInto(pl.s.br, &resp); err != nil {
				// The response stream is gone (or desynchronized): every
				// request behind this one is undeliverable too.
				err = pl.s.noteIOErr(err, true)
				pl.fail(fmt.Errorf("transport: pipeline read: %w", err))
				pl.resolve(p, 0, pl.Err())
				pl.drainFail()
				return
			}
			var serr error
			if resp.Status/100 != 2 {
				if pl.s.opts.Delta && resp.Status == 409 &&
					resp.Headers[wire.DeltaHeaderKey] == wire.DeltaValResync {
					// The server rejected a patch and demands a full body.
					// Only this request failed — the response was fully read
					// and the connection is healthy — so clear the sync
					// optimism and let this Pending's owner resubmit in full.
					pl.s.delta.reset(true)
					serr = wire.ErrDeltaResync
				} else {
					serr = fmt.Errorf("transport: server returned %d", resp.Status)
				}
			} else if pl.s.opts.Delta {
				if v, ok := resp.Headers[wire.DeltaHeaderKey]; ok {
					if _, _, oka := wire.ParseDeltaAck(v); oka {
						pl.s.delta.noteAck()
					}
				}
			}
			pl.resolve(p, resp.Status, serr)
			<-pl.slots
		}
	}
}

// resolve runs OnComplete before it wakes the Pending's waiter, so
// whatever OnComplete accounts is settled by the time the waiter sees
// its result.
func (pl *Pipeline) resolve(p *Pending, status int, err error) {
	if pl.OnComplete != nil {
		pl.OnComplete()
	}
	p.complete(status, err)
}

// drainFail fails every Pending still queued. Taking writeMu first
// serializes with a SendAsync mid-push: once drainFail holds the lock,
// any later submit sees the sticky error before writing, so no Pending
// can slip into the queue unresolved after the drain.
func (pl *Pipeline) drainFail() {
	err := pl.Err()
	pl.writeMu.Lock()
	defer pl.writeMu.Unlock()
	for {
		select {
		case p := <-pl.queue:
			pl.resolve(p, 0, err)
		default:
			return
		}
	}
}

// Close breaks the pipeline, closes the underlying connection, and waits
// for the reader goroutine to exit; every unresolved Pending completes
// with an error. The Sender itself survives — Redial gives it a fresh
// connection for a new Pipeline (or plain serial use).
func (pl *Pipeline) Close() error {
	pl.fail(ErrPipelineClosed)
	_ = pl.s.Close() // unblocks a reader mid-read
	<-pl.done
	return nil
}
