package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"bsoap"
)

// drainTimeout bounds the wait for a pipelined future after the run
// ends; a future still unresolved then is counted as lost.
const drainTimeout = 5 * time.Second

// loadResult is what the callers of one closed-loop run observed.
type loadResult struct {
	attempted  int64
	failed     int64
	lost       int64   // futures that never resolved (included in failed)
	lat        []int64 // per completed call, nanoseconds
	doneAt     []int64 // per completed call, when it returned (clock ns)
	patches    int64   // calls served by a patch frame
	patchBytes int64   // wire bytes of those patch frames
	calls      []span  // traced runs: one span per completed call
	elapsed    time.Duration
	firstErr   error

	// costs are process-wide cost counters read at the start of the run,
	// at every tick and at its end.
	costs []costSample
}

// costSample is one reading of the process-wide cost counters: CPU time
// (user+sys), heap bytes allocated, and bytes written and read on the
// client sockets.
type costSample struct {
	t           int64 // clock ns
	cpu         time.Duration
	alloc       uint64
	reqB, respB int64
}

func (s *system) costs() costSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	req, resp := s.wireBytes()
	return costSample{t: s.clk.now(), cpu: cpuTime(), alloc: ms.TotalAlloc, reqB: req, respB: resp}
}

func (r *loadResult) merge(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.lost += o.lost
	r.lat = append(r.lat, o.lat...)
	r.doneAt = append(r.doneAt, o.doneAt...)
	r.patches += o.patches
	r.patchBytes += o.patchBytes
	r.calls = append(r.calls, o.calls...)
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *loadResult) done(g *genMsg, ci bsoap.CallInfo, t0 time.Time, traced bool, clk clock) {
	now := time.Now()
	r.lat = append(r.lat, int64(now.Sub(t0)))
	r.doneAt = append(r.doneAt, int64(now.Sub(clk.origin)))
	if ci.DeltaSent {
		r.patches++
		r.patchBytes += int64(ci.WireBytes)
	}
	if traced {
		r.calls = append(r.calls, span{id: callID(g.mid, g.seq), t0: int64(t0.Sub(clk.origin)), t1: int64(now.Sub(clk.origin))})
	}
}

// maxRatePerCaller sizes the per-call sample buffers up front (calls
// per second per caller goroutine, with headroom), so the load itself
// does not allocate them.
const maxRatePerCaller = 25000

// run drives every caller in a closed loop for d: a caller issues a
// message's next call only once its previous call has returned (serial)
// or its future has resolved (pipelined). With tick > 0 a sampler reads
// the cost counters every tick while the load runs, so the run can be
// cut into windows without pausing it. corruptAt, when >= 0, records a
// wrong digest for that call of caller 0 (the gate's self-check).
func (s *system) run(d time.Duration, traced bool, corruptAt int64, tick time.Duration) *loadResult {
	n := int(d.Seconds()*maxRatePerCaller) + 1024
	parts := make([]*loadResult, len(s.callers))
	for i := range parts {
		lat, freeLat := offHeapInt64s(n)
		defer freeLat()
		doneAt, freeDone := offHeapInt64s(n)
		defer freeDone()
		parts[i] = &loadResult{lat: lat, doneAt: doneAt}
		if traced {
			parts[i].calls = make([]span, 0, n)
		}
	}
	costs := make([]costSample, 1, 2+int(d/max(tick, time.Millisecond)))
	costs[0] = s.costs()
	stop, sampled := make(chan struct{}), make(chan struct{})
	if tick > 0 {
		go func() {
			defer close(sampled)
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					costs = append(costs, s.costs())
				case <-stop:
					return
				}
			}
		}()
	} else {
		close(sampled)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range s.callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			ca := int64(-1)
			if i == 0 {
				ca = corruptAt
			}
			if s.w.depth > 0 {
				s.runPipelined(c, parts[i], deadline, traced, ca)
			} else {
				s.runSerial(c, parts[i], deadline, traced, ca)
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	<-sampled
	res := &loadResult{elapsed: elapsed, costs: append(costs, s.costs())}
	for _, p := range parts {
		res.merge(p)
	}
	return res
}

// offHeapInt64s returns an empty slice with room for n values in memory
// mapped outside the Go heap, and the function that unmaps it. Sample
// buffers sized for a whole run would otherwise add megabytes of live
// heap, slow the collector's pacing and so change the latency tail of
// the system being measured. If the mapping fails the buffer comes from
// the heap.
func offHeapInt64s(n int) ([]int64, func()) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]int64, 0, n), func() {}
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)[:0], func() { _ = syscall.Munmap(b) }
}

// window is one slice of a run between two cost samples.
type window struct {
	seconds float64
	lat     []int64 // sorted
	cost    costSample
}

// windows cuts the run at its cost samples, assigning each call to the
// window it returned in. Windows shorter than minLen (the tail where the
// callers stop) are left out.
func (r *loadResult) windows(minLen time.Duration) []window {
	ws := make([]window, len(r.costs)-1)
	for i, at := range r.doneAt {
		k := sort.Search(len(r.costs), func(k int) bool { return r.costs[k].t > at }) - 1
		if k >= 0 && k < len(ws) {
			ws[k].lat = append(ws[k].lat, r.lat[i])
		}
	}
	out := ws[:0]
	for k, w := range ws {
		a, b := r.costs[k], r.costs[k+1]
		if time.Duration(b.t-a.t) < minLen || len(w.lat) == 0 {
			continue
		}
		sort.Slice(w.lat, func(i, j int) bool { return w.lat[i] < w.lat[j] })
		w.seconds = time.Duration(b.t - a.t).Seconds()
		w.cost = costSample{cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc, reqB: b.reqB - a.reqB, respB: b.respB - a.respB}
		out = append(out, w)
	}
	return out
}

func (s *system) runSerial(c *caller, r *loadResult, deadline time.Time, traced bool, corruptAt int64) {
	for time.Now().Before(deadline) {
		g := c.advance()
		s.gate.expect(g, r.attempted == corruptAt)
		r.attempted++
		t0 := time.Now()
		ci, err := s.pool.Call(g.msg)
		if err != nil {
			r.fail(err)
			continue
		}
		r.done(g, ci, t0, traced, s.clk)
	}
}

// inflight is one pipelined call of a caller's ring.
type inflight struct {
	f  *bsoap.Future
	g  *genMsg
	t0 time.Time
}

func (s *system) runPipelined(c *caller, r *loadResult, deadline time.Time, traced bool, corruptAt int64) {
	ring := make([]inflight, len(c.msgs))
	submit := func(i int) {
		g := c.advance()
		s.gate.expect(g, r.attempted == corruptAt)
		r.attempted++
		t0 := time.Now()
		f, err := s.pool.CallAsync(g.msg)
		if err != nil {
			r.fail(err)
			ring[i] = inflight{}
			return
		}
		ring[i] = inflight{f: f, g: g, t0: t0}
	}
	// resolve waits, at most drainTimeout, for slot i's future and checks
	// that it resolves exactly once: a second Wait must return the
	// identical outcome.
	timer := time.NewTimer(drainTimeout)
	defer timer.Stop()
	resolve := func(i int) {
		in := ring[i]
		ring[i] = inflight{}
		if in.f == nil {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(drainTimeout)
		select {
		case <-in.f.Done():
		case <-timer.C:
			r.lost++
			r.fail(errLostFuture)
			return
		}
		ci, err := in.f.Wait()
		ci2, err2 := in.f.Wait()
		switch {
		case err != nil:
			r.fail(err)
		case ci2 != ci || err2 != nil:
			r.fail(errResolvedTwice)
		default:
			r.done(in.g, ci, in.t0, traced, s.clk)
		}
	}
	for i := range ring {
		submit(i)
	}
	for running := true; running; {
		for i := range ring {
			resolve(i)
			if running = time.Now().Before(deadline); !running {
				break
			}
			submit(i)
		}
	}
	for i := range ring {
		resolve(i)
	}
}

type benchError string

func (e benchError) Error() string { return string(e) }

const (
	errLostFuture    = benchError("pipelined future did not resolve")
	errResolvedTwice = benchError("pipelined future resolved to two outcomes")
)
