package transport

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bsoap/internal/trace"
	"bsoap/internal/wire"
)

// Version selects the HTTP framing used by a Sender.
type Version int

const (
	// HTTP10 frames every message with Content-Length and keeps the
	// connection alive explicitly, as the 2004 toolkits did.
	HTTP10 Version = iota
	// HTTP11 frames complete sends with Content-Length and streamed
	// sends with chunked transfer encoding.
	HTTP11
)

// SenderOptions configure a Sender.
type SenderOptions struct {
	// Target is the request target path (default "/").
	Target string
	// Host is the Host header value (default the connection's remote
	// address).
	Host string
	// Version selects HTTP/1.0-style or HTTP/1.1 framing.
	Version Version
	// ExpectResponse makes Send read (and discard) one HTTP response per
	// message. The paper's Send Time measurements do not wait for
	// responses; RPC-style examples do.
	ExpectResponse bool
	// Compress gzips complete message bodies (Content-Encoding: gzip) —
	// the bandwidth-for-CPU trade the paper's related work attributes
	// to gSOAP, complementary to (and measurable against) differential
	// serialization. Streamed (overlay) sends are never compressed.
	Compress bool
	// Dialer overrides the TCP dial used by Dial and Redial (fault
	// injection, tests, alternative transports). nil selects the default
	// dialer with the paper's socket options.
	Dialer func(network, addr string) (net.Conn, error)
	// WriteTimeout bounds the socket writes of one Send/stream operation:
	// the write deadline is re-armed at the start of each operation, so a
	// peer that stops draining cannot stall a pooled sender forever. Zero
	// disables the deadline.
	WriteTimeout time.Duration
	// ReadTimeout bounds each response read the same way. Zero disables.
	ReadTimeout time.Duration
	// Delta turns on differential-transmission negotiation: full sends
	// carry an X-BSoap-Delta sync header, and once the server
	// acknowledges one, warm calls whose template the server holds go
	// out as compact patch frames. Requires response reading (serial
	// senders need ExpectResponse; the pipelined path always reads), or
	// negotiation simply never completes and every send stays full —
	// lossless either way.
	Delta bool
}

// Sender frames serialized messages as HTTP POSTs over one persistent
// connection. It implements the engine's Sink (vectored complete sends)
// and StreamSink (chunked streaming for overlay). Not safe for
// concurrent use.
type Sender struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	opts SenderOptions

	// addr is the dial target, recorded by Dial; empty for senders
	// wrapped around an externally established connection, which
	// therefore cannot Redial.
	addr   string
	closed atomic.Bool

	// TraceSpan attributes this sender's flight-recorder events (redial,
	// deadline hits) to the call in progress, and is propagated to the
	// server as the X-BSoap-Trace request header so server-side events
	// join the same span. The pool sets it before each call; zero
	// records the events unattributed and writes no header. Written only
	// by the sender's owner (same synchronization as every send method).
	TraceSpan uint64

	// traceBuf is the persistent scratch the X-BSoap-Trace header is
	// rendered into: a field (not a stack array) so handing it to the
	// buffered writer does not force a per-send heap allocation.
	traceBuf [40]byte

	// head is the static request head (request line through SOAPAction),
	// rendered once at construction so steady-state sends write it
	// without building strings.
	head []byte

	// lenBuf is persistent scratch for the per-send variable header
	// lines (Content-Length, chunk sizes), for the same reason as
	// traceBuf.
	lenBuf [80]byte

	streaming bool
	gz        *gzip.Writer
	gzBuf     bytes.Buffer

	// resp is reused across maybeReadResponse roundtrips: the ack of a
	// warm send is parsed into recycled storage (Roundtrip, whose caller
	// keeps the response, reads into a fresh one instead).
	resp Response

	// delta holds the per-connection differential-transmission state:
	// whether the peer has acknowledged delta capability and which
	// template epochs it is believed synchronized at. Guarded by its
	// own mutex because the pipelined read loop updates it concurrently
	// with submits; on the serial path the lock is uncontended.
	delta deltaState

	// deltaHdr is the pending X-BSoap-Delta request header for the next
	// writeRequestHead (set by SendFull/SendDelta, consumed by the
	// write); deltaHdrBuf is its persistent backing.
	deltaHdr    []byte
	deltaHdrBuf [64]byte
}

// deltaState tracks what the peer holds for delta transmission.
type deltaState struct {
	mu      sync.Mutex
	capable bool
	syncs   map[uint64]uint64 // template id -> synchronized epoch
}

// maxDeltaSyncs bounds the per-connection sync map against template-id
// churn; exceeding it clears the map wholesale (every template simply
// resynchronizes with one full send).
const maxDeltaSyncs = 256

// noteSync optimistically records that the peer will hold tid at epoch
// once the bytes now being written arrive. Sound because submits happen
// in wire order: any patch referencing this base is written after it.
func (d *deltaState) noteSync(tid, epoch uint64) {
	d.mu.Lock()
	if d.syncs == nil {
		d.syncs = make(map[uint64]uint64, 8)
	} else if len(d.syncs) >= maxDeltaSyncs {
		if _, exists := d.syncs[tid]; !exists {
			clear(d.syncs)
		}
	}
	d.syncs[tid] = epoch
	d.mu.Unlock()
}

// noteAck marks the peer delta-capable (it acknowledged storing a base).
func (d *deltaState) noteAck() {
	d.mu.Lock()
	d.capable = true
	d.mu.Unlock()
}

// epoch reports the epoch the peer is believed synchronized at for tid.
func (d *deltaState) epoch(tid uint64) (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.capable {
		return 0, false
	}
	e, ok := d.syncs[tid]
	return e, ok
}

// reset drops all synchronization state (resync demand, redial).
// Capability survives a resync — the peer is still delta-capable, it
// just lost a base — but not a redial (fresh connection, fresh
// negotiation).
func (d *deltaState) reset(keepCapable bool) {
	d.mu.Lock()
	d.capable = d.capable && keepCapable
	clear(d.syncs)
	d.mu.Unlock()
}

// NewSender wraps an established connection.
func NewSender(conn net.Conn, opts SenderOptions) *Sender {
	if opts.Target == "" {
		opts.Target = "/"
	}
	if opts.Host == "" {
		if conn.RemoteAddr() != nil {
			opts.Host = conn.RemoteAddr().String()
		} else {
			opts.Host = "bsoap"
		}
	}
	proto := "HTTP/1.1"
	if opts.Version == HTTP10 {
		proto = "HTTP/1.0"
	}
	head := "POST " + opts.Target + " " + proto + "\r\n" +
		"Host: " + opts.Host + "\r\n" +
		"Content-Type: text/xml; charset=utf-8\r\n" +
		"SOAPAction: \"\"\r\n"
	if opts.Version == HTTP10 {
		head += "Connection: Keep-Alive\r\n"
	}
	return &Sender{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 32*1024),
		br:   bufio.NewReaderSize(conn, 32*1024),
		opts: opts,
		head: []byte(head),
	}
}

// Dial connects to addr over TCP with the socket options the paper sets
// (TCP_NODELAY, 32 KiB send and receive buffers, keep-alive) and returns
// a Sender. With opts.Dialer set, that dialer establishes the connection
// instead (and is reused by Redial).
func Dial(addr string, opts SenderOptions) (*Sender, error) {
	start := time.Now()
	conn, err := dialConn(addr, opts.Dialer)
	if trace.Enabled() {
		ok := int64(1)
		if err != nil {
			ok = 0
		}
		// Fresh dials happen before a sender is bound to any call, so the
		// event is unattributed (span 0) and ordered by time.
		trace.Rec(0, trace.KindDial, ok, time.Since(start).Nanoseconds(), 0)
	}
	if err != nil {
		return nil, err
	}
	s := NewSender(conn, opts)
	s.addr = addr
	return s, nil
}

// DefaultDialer establishes one experiment-configured TCP connection:
// TCP_NODELAY, keep-alive, 32 KiB socket buffers, 10s dial timeout. It
// is the dial SenderOptions.Dialer overrides, exported so wrappers
// (fault injection) can keep the same socket configuration underneath.
func DefaultDialer(network, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Errors here are advisory: the experiment still runs without
		// the exact 2004 socket configuration.
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
		_ = tc.SetWriteBuffer(32 * 1024)
		_ = tc.SetReadBuffer(32 * 1024)
	}
	return conn, nil
}

// dialConn dials addr through the given dialer (nil = DefaultDialer).
func dialConn(addr string, dialer func(network, addr string) (net.Conn, error)) (net.Conn, error) {
	if dialer == nil {
		dialer = DefaultDialer
	}
	conn, err := dialer("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return conn, nil
}

// Close closes the underlying connection. It is idempotent — closing an
// already-closed Sender is a no-op — and, alone among Sender methods,
// safe to call from multiple goroutines (the first call wins), so pool
// cleanup paths may Close unconditionally. Close must still not race
// Redial or a send: those need the same external synchronization as the
// rest of the Sender (the pool provides it via exclusive slot ownership).
func (s *Sender) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	return s.conn.Close()
}

// ErrNotDialed is returned by Redial on senders wrapped around an
// externally established connection (NewSender), which have no address
// to reconnect to.
var ErrNotDialed = fmt.Errorf("transport: sender was not created by Dial; cannot redial")

// Redial replaces a broken connection with a fresh one to the original
// Dial address, resetting all buffered I/O and stream state. It is the
// health-check primitive connection pools use: on a send error, Redial
// and retry (the engine preserves dirty bits across failed sends, so
// the retried call re-serializes the same changes).
func (s *Sender) Redial() error {
	if s.addr == "" {
		return ErrNotDialed
	}
	_ = s.Close()
	start := time.Now()
	conn, err := dialConn(s.addr, s.opts.Dialer)
	if trace.Enabled() {
		ok := int64(1)
		if err != nil {
			ok = 0
		}
		trace.Rec(s.TraceSpan, trace.KindRedial, ok, time.Since(start).Nanoseconds(), 0)
	}
	if err != nil {
		return err
	}
	s.conn = conn
	s.bw.Reset(conn)
	s.br.Reset(conn)
	s.closed.Store(false)
	s.streaming = false
	// A fresh connection negotiates delta from scratch: nothing the old
	// peer connection held can be assumed synchronized.
	s.delta.reset(false)
	s.deltaHdr = nil
	return nil
}

// armWrite re-arms the per-operation write deadline (no-op when
// WriteTimeout is zero). Errors are ignored: on a dead connection the
// write that follows surfaces the failure with better context.
func (s *Sender) armWrite() {
	if s.opts.WriteTimeout > 0 {
		_ = s.conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
}

// armRead re-arms the per-operation read deadline the same way.
func (s *Sender) armRead() {
	if s.opts.ReadTimeout > 0 {
		_ = s.conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	}
}

// noteIOErr records a flight-recorder deadline event when err is a
// socket timeout, returning err unchanged so call sites can keep
// wrapping it.
func (s *Sender) noteIOErr(err error, read bool) error {
	if err == nil {
		return nil
	}
	if trace.Enabled() {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			rw := int64(0)
			if read {
				rw = 1
			}
			trace.Rec(s.TraceSpan, trace.KindDeadline, rw, 0, 0)
		}
	}
	return err
}

// writeRequestHead writes the request line and common headers, leaving
// body framing to the caller.
func (s *Sender) writeRequestHead() error {
	if _, err := s.bw.Write(s.head); err != nil {
		return err
	}
	if s.TraceSpan != 0 {
		b := append(s.traceBuf[:0], traceHeaderPrefix...)
		b = strconv.AppendUint(b, s.TraceSpan, 16)
		b = append(b, '\r', '\n')
		if _, err := s.bw.Write(b); err != nil {
			return err
		}
	}
	if len(s.deltaHdr) != 0 {
		// Set-then-consume: the pending delta header belongs to exactly
		// one request; a plain Send between delta sends must not carry it.
		hdr := s.deltaHdr
		s.deltaHdr = nil
		if _, err := s.bw.Write(hdr); err != nil {
			return err
		}
	}
	return nil
}

// traceHeaderPrefix starts the span-propagation header; the value is
// the client's span id in lowercase hex (see TraceHeader).
const traceHeaderPrefix = "X-BSoap-Trace: "

// TraceHeader is the canonical name of the span-propagation header.
// Servers see it lowercased ("x-bsoap-trace") in Request.Headers.
const TraceHeader = "X-BSoap-Trace"

// Send frames bufs as one POST with Content-Length and flushes it — the
// engine's complete-message path. The vector is written segment by
// segment straight out of the template chunks (scatter-gather), unless
// compression is on, in which case the whole body is gzipped first
// (compression cannot reuse template bytes: every send re-compresses).
func (s *Sender) Send(bufs net.Buffers) error {
	if err := s.writeRequest(bufs); err != nil {
		return err
	}
	return s.maybeReadResponse()
}

// writeRequest frames bufs as one POST and flushes it without touching
// the response side of the connection — the write half Send and
// Pipeline.SendAsync share. The caller owns reading (or not reading)
// the response.
func (s *Sender) writeRequest(bufs net.Buffers) error {
	if s.opts.Compress {
		return s.writeRequestCompressed(bufs)
	}
	s.armWrite()
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if err := s.writeRequestHead(); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	b := append(s.lenBuf[:0], "Content-Length: "...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, '\r', '\n', '\r', '\n')
	if _, err := s.bw.Write(b); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	for _, b := range bufs {
		if _, err := s.bw.Write(b); err != nil {
			return fmt.Errorf("transport: send body: %w", s.noteIOErr(err, false))
		}
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: flush: %w", s.noteIOErr(err, false))
	}
	return nil
}

// writeRequestCompressed gzips the body and frames it with
// Content-Encoding, again leaving the response to the caller.
func (s *Sender) writeRequestCompressed(bufs net.Buffers) error {
	s.armWrite()
	s.gzBuf.Reset()
	if s.gz == nil {
		s.gz = gzip.NewWriter(&s.gzBuf)
	} else {
		s.gz.Reset(&s.gzBuf)
	}
	for _, b := range bufs {
		if _, err := s.gz.Write(b); err != nil {
			return fmt.Errorf("transport: compress: %w", err)
		}
	}
	if err := s.gz.Close(); err != nil {
		return fmt.Errorf("transport: compress: %w", err)
	}
	if err := s.writeRequestHead(); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	b := append(s.lenBuf[:0], "Content-Encoding: gzip\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(s.gzBuf.Len()), 10)
	b = append(b, '\r', '\n', '\r', '\n')
	if _, err := s.bw.Write(b); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	if _, err := s.bw.Write(s.gzBuf.Bytes()); err != nil {
		return fmt.Errorf("transport: send body: %w", s.noteIOErr(err, false))
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: flush: %w", s.noteIOErr(err, false))
	}
	return nil
}

// BeginStream starts a chunked-transfer POST (HTTP/1.1 only).
func (s *Sender) BeginStream() error {
	if s.opts.Version != HTTP11 {
		return fmt.Errorf("transport: streaming requires HTTP/1.1")
	}
	if s.streaming {
		return fmt.Errorf("transport: BeginStream during active stream")
	}
	s.armWrite()
	if err := s.writeRequestHead(); err != nil {
		return fmt.Errorf("transport: begin stream: %w", err)
	}
	if _, err := s.bw.WriteString("Transfer-Encoding: chunked\r\n\r\n"); err != nil {
		return fmt.Errorf("transport: begin stream: %w", err)
	}
	s.streaming = true
	return nil
}

// StreamChunk emits one transfer-encoding chunk and flushes it, so the
// bytes leave as soon as they are serialized (the paper's streaming).
func (s *Sender) StreamChunk(p []byte) error {
	if !s.streaming {
		return fmt.Errorf("transport: StreamChunk outside a stream")
	}
	if len(p) == 0 {
		return nil // a zero-length chunk would terminate the body
	}
	s.armWrite()
	b := strconv.AppendInt(s.lenBuf[:0], int64(len(p)), 16)
	b = append(b, '\r', '\n')
	if _, err := s.bw.Write(b); err != nil {
		return fmt.Errorf("transport: chunk head: %w", err)
	}
	if _, err := s.bw.Write(p); err != nil {
		return fmt.Errorf("transport: chunk data: %w", err)
	}
	if _, err := s.bw.WriteString("\r\n"); err != nil {
		return fmt.Errorf("transport: chunk tail: %w", err)
	}
	return s.noteIOErr(s.bw.Flush(), false)
}

// EndStream terminates the chunked body.
func (s *Sender) EndStream() error {
	if !s.streaming {
		return fmt.Errorf("transport: EndStream outside a stream")
	}
	s.streaming = false
	s.armWrite()
	if _, err := s.bw.WriteString("0\r\n\r\n"); err != nil {
		return fmt.Errorf("transport: end stream: %w", err)
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: end stream flush: %w", s.noteIOErr(err, false))
	}
	return s.maybeReadResponse()
}

// Roundtrip sends bufs and returns the whole response, whatever the
// ExpectResponse option.
func (s *Sender) Roundtrip(bufs net.Buffers) (*Response, error) {
	if err := s.writeRequest(bufs); err != nil {
		return nil, err
	}
	s.armRead()
	resp, err := ReadResponse(s.br)
	if err != nil {
		return nil, s.noteIOErr(err, true)
	}
	return resp, nil
}

func (s *Sender) maybeReadResponse() error {
	if !s.opts.ExpectResponse {
		return nil
	}
	s.armRead()
	if err := ReadResponseInto(s.br, &s.resp); err != nil {
		return s.noteIOErr(err, true)
	}
	if s.resp.Status/100 != 2 {
		if s.opts.Delta && s.resp.Status == 409 && s.resp.Headers[wire.DeltaHeaderKey] == wire.DeltaValResync {
			// The peer rejected a patch: drop every assumed-synchronized
			// base and let the caller resend in full. The connection
			// itself stays healthy.
			s.delta.reset(true)
			return wire.ErrDeltaResync
		}
		return fmt.Errorf("transport: server returned %d", s.resp.Status)
	}
	if s.opts.Delta {
		if v, ok := s.resp.Headers[wire.DeltaHeaderKey]; ok {
			if _, _, oka := wire.ParseDeltaAck(v); oka {
				s.delta.noteAck()
			}
		}
	}
	return nil
}

// deltaHeaderPrefix starts the differential-transmission negotiation
// header (request side).
const deltaHeaderPrefix = "X-BSoap-Delta: "

// DeltaEpoch implements core.DeltaSink: the epoch the peer is believed
// synchronized at for template tid (ok=false until the peer has
// acknowledged delta capability, or when Delta is off).
func (s *Sender) DeltaEpoch(tid uint64) (uint64, bool) {
	if !s.opts.Delta {
		return 0, false
	}
	return s.delta.epoch(tid)
}

// SendFull implements core.DeltaSink: a full-body send annotated with a
// sync header so a capable peer stores it as the patch base for tid.
// The sync map is updated optimistically at write time — submits happen
// in wire order, so any later patch against this base is written after
// it; if the write fails, redial/resync recovery clears the optimism.
func (s *Sender) SendFull(bufs net.Buffers, tid, epoch uint64) error {
	if !s.opts.Delta {
		return s.Send(bufs)
	}
	b := append(s.deltaHdrBuf[:0], deltaHeaderPrefix...)
	b = wire.AppendDeltaSync(b, tid, epoch)
	b = append(b, '\r', '\n')
	s.deltaHdr = b
	s.delta.noteSync(tid, epoch)
	return s.Send(bufs)
}

// SendDelta implements core.DeltaSink: bufs is a pre-encoded patch
// frame. A 409/resync response surfaces as wire.ErrDeltaResync (after
// clearing the sync map) so the stub falls back to SendFull on this
// same connection.
func (s *Sender) SendDelta(bufs net.Buffers, tid, newEpoch uint64) error {
	b := append(s.deltaHdrBuf[:0], deltaHeaderPrefix...)
	b = append(b, wire.DeltaValPatch...)
	b = append(b, '\r', '\n')
	s.deltaHdr = b
	s.delta.noteSync(tid, newEpoch)
	return s.Send(bufs)
}

// crlf is the HTTP line terminator.
const crlf = "\r\n"

// Fetch performs one GET request against addr and returns the response
// — the client side of WSDL retrieval.
func Fetch(addr, target string) (*Response, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if target == "" {
		target = "/"
	}
	if _, err := io.WriteString(conn, "GET "+target+" HTTP/1.1"+crlf+"Host: "+addr+crlf+crlf); err != nil {
		return nil, fmt.Errorf("transport: fetch: %w", err)
	}
	return ReadResponse(bufio.NewReader(conn))
}

// DiscardSink is the in-process sink the benchmarks use by default: it
// consumes messages without network or copies beyond reading lengths, so
// measured time is pure serialization-side cost. It is safe for
// concurrent use.
type DiscardSink struct {
	bytes atomic.Int64
	sends atomic.Int64
}

// NewDiscardSink returns a fresh sink.
func NewDiscardSink() *DiscardSink { return &DiscardSink{} }

// Send implements the engine's Sink.
func (d *DiscardSink) Send(bufs net.Buffers) error {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	d.bytes.Add(int64(n))
	d.sends.Add(1)
	return nil
}

// BeginStream implements StreamSink.
func (d *DiscardSink) BeginStream() error { return nil }

// StreamChunk implements StreamSink.
func (d *DiscardSink) StreamChunk(p []byte) error {
	d.bytes.Add(int64(len(p)))
	return nil
}

// EndStream implements StreamSink.
func (d *DiscardSink) EndStream() error {
	d.sends.Add(1)
	return nil
}

// Bytes reports the total bytes consumed.
func (d *DiscardSink) Bytes() int64 { return d.bytes.Load() }

// Sends reports the number of messages consumed.
func (d *DiscardSink) Sends() int64 { return d.sends.Load() }

// DeltaDiscardSink is DiscardSink's delta-capable counterpart: an
// in-process sink acting as an always-capable, never-evicting peer. It
// lets benchmarks and alloc gates exercise the client's full delta
// encode path (eligibility, region walk, checksum, frame assembly)
// without a network. Safe for concurrent use.
type DeltaDiscardSink struct {
	DiscardSink
	mu         sync.Mutex
	syncs      map[uint64]uint64
	deltaSends atomic.Int64
	fullSends  atomic.Int64
}

// NewDeltaDiscardSink returns a fresh delta-capable discard sink.
func NewDeltaDiscardSink() *DeltaDiscardSink {
	return &DeltaDiscardSink{syncs: make(map[uint64]uint64, 8)}
}

// DeltaEpoch implements core.DeltaSink.
func (d *DeltaDiscardSink) DeltaEpoch(tid uint64) (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.syncs[tid]
	return e, ok
}

// SendFull implements core.DeltaSink.
func (d *DeltaDiscardSink) SendFull(bufs net.Buffers, tid, epoch uint64) error {
	d.mu.Lock()
	d.syncs[tid] = epoch
	d.mu.Unlock()
	d.fullSends.Add(1)
	return d.Send(bufs)
}

// SendDelta implements core.DeltaSink.
func (d *DeltaDiscardSink) SendDelta(bufs net.Buffers, tid, newEpoch uint64) error {
	d.mu.Lock()
	d.syncs[tid] = newEpoch
	d.mu.Unlock()
	d.deltaSends.Add(1)
	return d.Send(bufs)
}

// DeltaSends reports patch-frame sends consumed; FullSends reports
// annotated full sends.
func (d *DeltaDiscardSink) DeltaSends() int64 { return d.deltaSends.Load() }

// FullSends reports sync-annotated full-body sends consumed.
func (d *DeltaDiscardSink) FullSends() int64 { return d.fullSends.Load() }

// WriterSink adapts any io.Writer into a Sink/StreamSink (tests, files).
type WriterSink struct{ W io.Writer }

// Send implements Sink.
func (w WriterSink) Send(bufs net.Buffers) error {
	for _, b := range bufs {
		if _, err := w.W.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// BeginStream implements StreamSink.
func (w WriterSink) BeginStream() error { return nil }

// StreamChunk implements StreamSink.
func (w WriterSink) StreamChunk(p []byte) error {
	_, err := w.W.Write(p)
	return err
}

// EndStream implements StreamSink.
func (w WriterSink) EndStream() error { return nil }
