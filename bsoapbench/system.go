package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bsoap"
	"bsoap/internal/serverpool"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// captureBytes bounds what is captured of each direction of each
// client connection. Capture starts at dial so the request stream can be
// replayed from its first delta base.
const captureBytes = 8 << 20

// clock gives every span a timestamp in nanoseconds since one origin.
type clock struct{ origin time.Time }

func (c clock) now() int64 { return int64(time.Since(c.origin)) }

// span is one timed interval at a layer boundary. id is the call's
// identity (message id << 32 | sequence); 0 when unknown.
type span struct {
	id     uint64
	t0, t1 int64
}

func callID(mid, seq int32) uint64 { return uint64(uint32(mid))<<32 | uint64(uint32(seq)) }

// spanLog is an append-only, mutex-guarded span list.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// ioRec is one Read or Write call on a client socket: its interval and
// the stream offset of its first byte.
type ioRec struct {
	t0, t1 int64
	off, n int64
}

// ioLog records one direction of one connection.
type ioLog struct {
	mu      sync.Mutex
	bytes   atomic.Int64 // all bytes moved, traced or not
	recs    []ioRec
	capture []byte
	limit   int
}

func (l *ioLog) note(s *system, p []byte, traced bool, t0 int64) {
	off := l.bytes.Add(int64(len(p))) - int64(len(p))
	capturing := s.capturing.Load()
	if !traced && !capturing {
		return
	}
	l.mu.Lock()
	if traced {
		l.recs = append(l.recs, ioRec{t0: t0, t1: s.clk.now(), off: off, n: int64(len(p))})
	}
	if capturing && int(off) == len(l.capture) && len(l.capture)+len(p) <= l.limit {
		l.capture = append(l.capture, p...)
	}
	l.mu.Unlock()
}

// benchConn wraps a client socket to count and, in the traced run,
// time and capture the bytes that cross it.
type benchConn struct {
	net.Conn
	sys    *system
	wr, rd ioLog
}

func (c *benchConn) Write(p []byte) (int, error) {
	traced, t0 := c.sys.stamp()
	n, err := c.Conn.Write(p)
	c.wr.note(c.sys, p[:n], traced, t0)
	return n, err
}

func (c *benchConn) Read(p []byte) (int, error) {
	traced, t0 := c.sys.stamp()
	n, err := c.Conn.Read(p)
	c.rd.note(c.sys, p[:n], traced, t0)
	return n, err
}

// system is one live instance of the system under test: a
// transport.Server running the serverpool runtime on loopback, and a
// bsoap.Pool driven by the workload's callers.
type system struct {
	w       *workload
	clk     clock
	sm      *transport.ServerMetrics
	rt      *serverpool.Runtime
	srv     *transport.Server
	pool    *bsoap.Pool
	callers []*caller
	gate    *gate

	tracing   atomic.Bool // record spans
	capturing atomic.Bool // capture client socket bytes

	connMu sync.Mutex
	conns  []*benchConn

	srvSpans spanLog // around the serverpool transport handler
	appSpans spanLog // around the benchmark's own handler
}

// engineConfig is the loadgen engine configuration.
var engineConfig = bsoap.Config{EnableStealing: true, Width: bsoap.WidthPolicy{Double: doubleWidth, Int: intWidth}}

// newSystem starts the server, builds the pool and the callers'
// messages, and sends every message once (first-time send plus delta
// sync), leaving the system warm.
func newSystem(w *workload, seed uint64, clk clock, capture bool) (*system, error) {
	s := &system{w: w, clk: clk, sm: transport.NewServerMetrics()}
	s.capturing.Store(capture)
	s.rt = serverpool.New(serverpool.Options{
		DifferentialDeserialization: true,
		Delta:                       true,
		MaxReplicas:                 256,
		Metrics:                     s.sm,
	})
	for _, sc := range schemas {
		s.rt.Register(sc, s.appHandler)
	}
	inner := s.rt.HTTPHandler()
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler:   s.transportHandler(inner),
		Respond:   true,
		Metrics:   s.sm,
		ReadAhead: w.readAhead,
	})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.srv = srv
	popts := bsoap.PoolOptions{
		Addr:          srv.Addr(),
		Size:          w.conns,
		PipelineDepth: w.depth,
		Delta:         w.delta,
		Config:        engineConfig,
	}
	popts.Sender.ExpectResponse = true
	popts.Sender.Dialer = s.dial
	s.pool, err = bsoap.NewPool(popts)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("pool: %w", err)
	}
	for g := 0; g < w.goroutines; g++ {
		s.callers = append(s.callers, newCaller(w, seed, g))
	}
	s.gate = newGate(w.goroutines * len(s.callers[0].msgs))
	for _, c := range s.callers {
		for _, m := range c.msgs {
			s.gate.expect(m, false)
			if _, err := s.pool.Call(m.msg); err != nil {
				s.close()
				return nil, fmt.Errorf("first-time send of message %d: %w", m.mid, err)
			}
		}
	}
	return s, nil
}

// stamp reports whether spans are being recorded and, if so, the time.
func (s *system) stamp() (bool, int64) {
	if !s.tracing.Load() {
		return false, 0
	}
	return true, s.clk.now()
}

func (s *system) dial(network, addr string) (net.Conn, error) {
	c, err := transport.DefaultDialer(network, addr)
	if err != nil {
		return nil, err
	}
	bc := &benchConn{Conn: c, sys: s}
	bc.wr.limit, bc.rd.limit = captureBytes, captureBytes
	s.connMu.Lock()
	s.conns = append(s.conns, bc)
	s.connMu.Unlock()
	return bc, nil
}

func (s *system) clientConns() []*benchConn {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return append([]*benchConn(nil), s.conns...)
}

// wireBytes sums request and response bytes over the client sockets.
func (s *system) wireBytes() (req, resp int64) {
	for _, c := range s.clientConns() {
		req += c.wr.bytes.Load()
		resp += c.rd.bytes.Load()
	}
	return req, resp
}

// transportHandler wraps the serverpool handler in a span.
func (s *system) transportHandler(inner transport.Handler) transport.Handler {
	return func(req *transport.Request) ([]byte, error) {
		traced, t0 := s.stamp()
		if !traced {
			return inner(req)
		}
		body, err := inner(req)
		t1 := s.clk.now()
		s.srvSpans.add(span{id: responseID(body), t0: t0, t1: t1})
		return body, err
	}
}

// appHandler is the benchmark's own operation handler: it runs the
// correctness gate and echoes the call's identity.
func (s *system) appHandler() serverpool.Handler {
	resp := wire.NewMessage(benchNS, "benchAck")
	mid := resp.AddInt("mid", 0)
	seq := resp.AddInt("seq", 0)
	n := resp.AddInt("n", 0)
	return func(req *wire.Message) (*wire.Message, error) {
		traced, t0 := s.stamp()
		err := s.gate.check(req)
		mid.Set(req.LeafInt(0))
		seq.Set(req.LeafInt(1))
		n.Set(int32(req.NumLeaves()))
		if traced {
			s.appSpans.add(span{id: callID(req.LeafInt(0), req.LeafInt(1)), t0: t0, t1: s.clk.now()})
		}
		if err != nil {
			return nil, err
		}
		return resp, nil
	}
}

// close stops the pool, then drains and closes the server.
func (s *system) close() {
	s.pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
}

// responseID reads the echoed message id and sequence out of a
// serialized benchAck body; 0 when body is not one.
func responseID(body []byte) uint64 {
	mid, ok1 := scanIntLeaf(body, "<mid")
	seq, ok2 := scanIntLeaf(body, "<seq")
	if !ok1 || !ok2 {
		return 0
	}
	return callID(mid, seq)
}

// scanIntLeaf finds the first element opening with open and parses the
// integer text that follows its '>'.
func scanIntLeaf(b []byte, open string) (int32, bool) {
	for i := 0; i+len(open) < len(b); i++ {
		if string(b[i:i+len(open)]) != open || (b[i+len(open)] != '>' && b[i+len(open)] != ' ') {
			continue
		}
		j := i + len(open)
		for j < len(b) && b[j] != '>' {
			j++
		}
		j++
		neg := j < len(b) && b[j] == '-'
		if neg {
			j++
		}
		var v int64
		digits := 0
		for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			v = v*10 + int64(b[j]-'0')
			digits++
		}
		if digits == 0 {
			return 0, false
		}
		if neg {
			v = -v
		}
		return int32(v), true
	}
	return 0, false
}
