// Command bsoapbench is the repository's end-to-end benchmark: one
// process serving benchmark-owned SOAP operations through the real
// transport.Server and serverpool runtime on loopback TCP, driven by a
// bsoap.Pool in closed loops.
//
//	bash bsoapbench/run.sh --workload psm-reser --seed 1 --seconds 10 --trace 0
//	bash bsoapbench/run.sh --workload all --seed 1 --seconds 10
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 a traced run gives the per-layer metrics, each layer
// timed from outside through its public functions. --workload all runs
// every workload both ways, prints both tables and the gate self-check.
// The last line of standard output is always the JSON result.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"bsoap/internal/trace"
)

const (
	// gomaxprocs runs client and server goroutines on one P. Callers,
	// connections, pipelining and read-ahead still interleave, but no
	// call waits on a cross-CPU wake-up: on a shared 2-vCPU machine those
	// wake-ups and the second vCPU's steal time swung p99 and calls/s by
	// 25-135% from run to run, against under 10% on one P.
	gomaxprocs = 1
	// setupRepeats set-ups run per measured run; setup_s is their median.
	setupRepeats = 15
	// warmup runs the loop before measuring, so lazy state has settled.
	warmup = time.Second
	// End-to-end metrics are medians over windows of a run, each at
	// least callsPerWindow calls (so its p99 has 20 calls beyond it) and
	// minWindow long. Shorter windows hold too few GC cycles: their p99
	// flips between calls that met a collection and calls that did not.
	callsPerWindow = 2000
	minWindow      = time.Second
	// traceDir receives the traced run's spans.
	traceDir = ".bench_build/trace"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// def names a metric, its unit and what it measures, in report order.
type def struct{ name, unit, about string }

var endToEnd = []def{
	{"calls_per_s", "1/s", "completed, verified calls per second"},
	{"latency_p50_us", "us", "median client latency per call (call start to return, or submit to future resolve)"},
	{"latency_p99_us", "us", "99th-percentile client latency per call"},
	{"wire_bytes_per_call", "bytes", "request plus response bytes on the client sockets per completed call"},
	{"cpu_us_per_call", "us", "process CPU (user+sys, client and server) per completed call"},
	{"alloc_bytes_per_call", "bytes", "Go heap bytes allocated per completed call"},
	{"verified_frac", "ratio", "calls attempted that completed and passed the gate (1 - failed_frac)"},
	{"setup_s", "s", "median of 15 set-ups: listen, dial, first-time send and delta sync of every message"},
}

var perLayer = []def{
	{"core.serialize_us", "us", "core.Stub.Call per call, replayed onto a plain in-memory sink"},
	{"core.psm_frac", "ratio", "share of replayed calls that were perfect structural matches"},
	{"core.content_match_frac", "ratio", "share of replayed calls that were content matches"},
	{"core.partial_frac", "ratio", "share of replayed calls that were partial structural matches"},
	{"core.first_time_frac", "ratio", "share of replayed calls that were first-time sends"},
	{"core.values_rewritten_per_call", "count", "values rewritten per replayed call"},
	{"core.shifts_per_call", "count", "field shifts per replayed call"},
	{"core.steals_per_call", "count", "padding steals per replayed call"},
	{"core.tag_shifts_per_call", "count", "closing-tag shifts per replayed call"},
	{"core.delta_encode_us", "us", "replay onto transport.NewDeltaDiscardSink minus the plain replay, per call"},
	{"fastconv.write_double_ns", "ns", "fastconv.WriteDouble per value of the workload's own value stream"},
	{"transport.write_us_per_call", "us", "time in client socket writes per call"},
	{"transport.read_wait_us_per_call", "us", "time in client socket reads per call"},
	{"transport.req_bytes_per_call", "bytes", "request bytes per call (traced phase)"},
	{"transport.resp_bytes_per_call", "bytes", "response bytes per call (traced phase)"},
	{"transport.parse_us", "us", "transport.ReadRequestInto per captured request"},
	{"wire.patch_frac", "ratio", "share of calls sent as patch frames (pool.Stats)"},
	{"wire.resyncs_per_call", "count", "patch rejections per call (pool.Stats)"},
	{"wire.frame_bytes_per_patch", "bytes", "patch frame bytes per patch send"},
	{"wire.apply_us", "us", "wire.ParseDeltaFrame + DeltaFrame.Apply per captured patch"},
	{"pool.checkout_waits_per_call", "count", "pool checkouts that waited, per call"},
	{"pool.pipeline_stalls_per_call", "count", "pipelined submits stalled at full depth, per call"},
	{"pool.rebinds_per_call", "count", "template rebinds per call"},
	{"pool.retries_per_call", "count", "send retries per call"},
	{"serverpool.handle_us", "us", "serverpool transport handler span minus the app handler span"},
	{"serverpool.fast_path_frac", "ratio", "share of server decodes on the differential fast path (Runtime.Stats)"},
	{"serverpool.values_reparsed_per_req", "count", "values re-lexed per server request (Runtime.Stats)"},
	{"diffdeser.decode_us", "us", "diffdeser.Deserializer.Decode per reconstructed captured body"},
	{"diffdeser.full_parse_frac", "ratio", "share of replayed decodes that fell back to a full parse"},
	{"soapdec.full_parse_us", "us", "soapdec.Decode per reconstructed captured body (a fast-path miss)"},
	{"handler.us", "us", "the benchmark's own handler per request, gate included"},
	{"bench.unattributed_frac", "ratio", "share of linked calls' client latency covered by no layer span"},
	{"bench.trace_overhead_frac", "ratio", "(traced - untraced) / untraced latency_p50_us in the same process"},
}

func main() {
	var (
		name    = flag.String("workload", "", "psm-reser | sparse-delta | pipelined-mix | all")
		seed    = flag.Uint64("seed", 1, "seed the workload's values are generated from")
		seed2   = flag.Uint64("seed2", 0, "with --workload all: a second seed whose end-to-end run is printed beside the first (0 = none)")
		seconds = flag.Int("seconds", 10, "how long one run measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	)
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fail(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	dur := time.Duration(*seconds) * time.Second
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintln(out, "traffic: loopback TCP on 127.0.0.1 within one process; no real link was crossed")
	if *name == "all" {
		res, err := runAll(out, *seed, *seed2, dur)
		if err != nil {
			out.Flush()
			fail(err)
		}
		printResult(out, res)
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(out, "meta: %s\n", metaLine(w, *seed))
	// A run that hangs still ends, with an error and no result, in bounded time.
	time.AfterFunc(2*dur+60*time.Second, func() {
		fail(fmt.Errorf("run exceeded its time limit"))
	})
	var res result
	if *traced == 1 {
		res, err = measureTraced(out, w, *seed, dur)
	} else {
		res, err = measure(out, w, *seed, dur)
	}
	if err != nil {
		out.Flush()
		fail(err)
	}
	printResult(out, res)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bsoapbench:", err)
	os.Exit(1)
}

func printResult(out *bufio.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(out, string(b))
}

// metaLine records what a result was measured on.
func metaLine(w *workload, seed uint64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": seed, "commit": commit, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu, "go": runtime.Version(),
	})
	return string(b)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the p-quantile of sorted (nearest rank).
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(0, i)])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setUp builds the system setupRepeats times, keeping the last one, and
// returns it with the median set-up time in seconds.
func setUp(w *workload, seed uint64, clk clock, capture bool, repeats int) (*system, float64, error) {
	var times []float64
	var s *system
	for k := 0; k < repeats; k++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = newSystem(w, seed, clk, capture); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

// measure runs the untraced end-to-end measurement. After set-up and a
// warm-up the load runs without pause while a sampler cuts it into
// windows of about callsPerWindow calls (at least minWindow, sized from
// the warm-up rate); each metric reports its median over the windows, so
// a burst of interference from outside the process moves a few windows
// and not the result.
func measure(out *bufio.Writer, w *workload, seed uint64, dur time.Duration) (result, error) {
	clk := clock{origin: time.Now()}
	s, setup, err := setUp(w, seed, clk, false, setupRepeats)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	warm := s.run(warmup, false, -1, 0)
	if len(warm.lat) == 0 {
		return result{}, fmt.Errorf("%s: no call completed in the warm-up: %v", w.name, warm.firstErr)
	}
	win := max(minWindow, time.Duration(float64(callsPerWindow)/float64(len(warm.lat))*float64(warm.elapsed)))
	runtime.GC()
	res := s.run(dur, false, -1, win)
	ws := res.windows(win / 2)
	if len(ws) == 0 {
		return result{}, fmt.Errorf("%s: no call completed: %v", w.name, res.firstErr)
	}
	perWindow := map[string][]float64{}
	for _, wd := range ws {
		done := int64(len(wd.lat))
		for k, v := range map[string]float64{
			"calls_per_s":          float64(done) / wd.seconds,
			"latency_p50_us":       percentile(wd.lat, 0.50) / 1e3,
			"latency_p99_us":       percentile(wd.lat, 0.99) / 1e3,
			"wire_bytes_per_call":  ratio(wd.cost.reqB+wd.cost.respB, done),
			"cpu_us_per_call":      float64(wd.cost.cpu.Microseconds()) / float64(done),
			"alloc_bytes_per_call": ratio(int64(wd.cost.alloc), done),
		} {
			perWindow[k] = append(perWindow[k], v)
		}
	}
	vals := map[string]float64{"verified_frac": 1 - ratio(res.failed, res.attempted), "setup_s": setup}
	for k, v := range perWindow {
		vals[k] = median(v)
	}
	m := withUnits(vals)
	done := int64(len(res.lat))
	fmt.Fprintf(out, "workload %s: closed loop, %d caller(s), %d connection(s), pipeline depth %d, delta %v, GOMAXPROCS %d, seed %d\n",
		w.name, w.goroutines, w.conns, w.depth, w.delta, runtime.GOMAXPROCS(0), seed)
	fmt.Fprintf(out, "  %s measured as %d windows of %s; each value is the median over the windows\n", dur, len(ws), win.Round(time.Millisecond))
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-22s %14.3f %-6s %s\n", d.name, m[d.name].Value, d.unit, d.about)
	}
	fmt.Fprintf(out, "  samples: %d completed calls, about %d per window (each window's percentiles over all its calls), %d attempted, %d failed (failed_frac %.6f), %d lost futures\n",
		done, done/int64(len(ws)), res.attempted, res.failed, ratio(res.failed, res.attempted), res.lost)
	if err := errors.Join(warm.firstErr, res.firstErr); err != nil {
		fmt.Fprintf(out, "  first failure: %v\n", err)
	}
	return result{
		Correct:   res.failed == 0 && warm.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   m,
	}, nil
}

// withUnits attaches each metric's unit from the definitions above.
func withUnits(vals map[string]float64) map[string]metric {
	units := map[string]string{}
	for _, defs := range [][]def{endToEnd, perLayer} {
		for _, d := range defs {
			units[d.name] = d.unit
		}
	}
	m := make(map[string]metric, len(vals))
	for k, v := range vals {
		m[k] = metric{v, units[k]}
	}
	return m
}

var clientStages = []trace.Stage{trace.StageCheckout, trace.StageSerialize, trace.StageDeltaEncode, trace.StagePipelineQueue, trace.StageWire}
var serverStages = []trace.Stage{trace.StageServerQueue, trace.StageDeltaApply, trace.StageDecode, trace.StageHandler, trace.StageRespond, trace.StageWrite}

func stageSums(h *trace.StageHist, stages []trace.Stage) []float64 {
	s := make([]float64, len(stages))
	for i, st := range stages {
		s[i] = h.SumSeconds(st)
	}
	return s
}

func spanMeanUs(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var t int64
	for _, s := range spans {
		t += s.t1 - s.t0
	}
	return float64(t) / float64(len(spans)) / 1e3
}

// measureTraced runs the traced measurement: a traced phase recording
// spans and capturing the request stream, then an untraced phase of the
// same length for the tracing overhead, then the layer replays.
func measureTraced(out *bufio.Writer, w *workload, seed uint64, dur time.Duration) (result, error) {
	clk := clock{origin: time.Now()}
	s, _, err := setUp(w, seed, clk, true, 1)
	if err != nil {
		return result{}, err
	}
	half := dur / 2
	ps0, rs0 := s.pool.Stats(), s.rt.Stats()
	cs0, ss0 := stageSums(&s.pool.Metrics().Stages, clientStages), stageSums(&s.sm.Stages, serverStages)
	s.tracing.Store(true)
	tr := s.run(half, true, -1, 0)
	s.tracing.Store(false)
	s.capturing.Store(false)
	ps1, rs1 := s.pool.Stats(), s.rt.Stats()
	cs1, ss1 := stageSums(&s.pool.Metrics().Stages, clientStages), stageSums(&s.sm.Stages, serverStages)
	un := s.run(half, false, -1, 0)
	s.close()

	done := int64(len(tr.lat))
	if done == 0 || len(un.lat) == 0 {
		return result{}, fmt.Errorf("%s: no call completed: %v", w.name, errors.Join(tr.firstErr, un.firstErr))
	}
	sort.Slice(tr.lat, func(i, j int) bool { return tr.lat[i] < tr.lat[j] })
	sort.Slice(un.lat, func(i, j int) bool { return un.lat[i] < un.lat[j] })
	tracedP50, untracedP50 := percentile(tr.lat, 0.5), percentile(un.lat, 0.5)

	conns := s.clientConns()
	var wrNs, rdNs, wrB, rdB int64
	streams := make([][]byte, 0, len(conns))
	for _, c := range conns {
		for _, r := range c.wr.recs {
			wrNs += r.t1 - r.t0
			wrB += r.n
		}
		for _, r := range c.rd.recs {
			rdNs += r.t1 - r.t0
			rdB += r.n
		}
		streams = append(streams, c.wr.capture)
	}
	writes, reads := linkedSpans(conns)
	srv, app := s.srvSpans.snapshot(), s.appSpans.snapshot()
	unattr, linked := unattributed(tr.calls, writes, reads, srv)

	plain, delta, err := replayCore(w, seed)
	if err != nil {
		return result{}, fmt.Errorf("core replay: %w", err)
	}
	sr, err := replayServer(streams)
	if err != nil {
		return result{}, fmt.Errorf("server replay: %w", err)
	}
	wdNs := writeDoubleNs(plain.doubles)

	calls := ps1.Calls - ps0.Calls
	reqs := rs1.Requests - rs0.Requests
	serializeUs := ratio(plain.ns, plain.calls) / 1e3
	decodes := rs1.DiffDecodes - rs0.DiffDecodes + rs1.FullParses - rs0.FullParses
	m := withUnits(map[string]float64{
		"core.serialize_us":                  serializeUs,
		"core.psm_frac":                      ratio(plain.psm, plain.calls),
		"core.content_match_frac":            ratio(plain.content, plain.calls),
		"core.partial_frac":                  ratio(plain.parts, plain.calls),
		"core.first_time_frac":               ratio(plain.firstTime, plain.calls),
		"core.values_rewritten_per_call":     ratio(plain.rewritten, plain.calls),
		"core.shifts_per_call":               ratio(plain.shifts, plain.calls),
		"core.steals_per_call":               ratio(plain.steals, plain.calls),
		"core.tag_shifts_per_call":           ratio(plain.tag, plain.calls),
		"core.delta_encode_us":               ratio(delta.ns, delta.calls)/1e3 - serializeUs,
		"fastconv.write_double_ns":           wdNs,
		"transport.write_us_per_call":        ratio(wrNs, done) / 1e3,
		"transport.read_wait_us_per_call":    ratio(rdNs, done) / 1e3,
		"transport.req_bytes_per_call":       ratio(wrB, done),
		"transport.resp_bytes_per_call":      ratio(rdB, done),
		"transport.parse_us":                 ratio(sr.parseNs, sr.requests) / 1e3,
		"wire.patch_frac":                    ratio(ps1.DeltaSends-ps0.DeltaSends, calls),
		"wire.resyncs_per_call":              ratio(ps1.DeltaResyncs-ps0.DeltaResyncs, calls),
		"wire.frame_bytes_per_patch":         ratio(tr.patchBytes, tr.patches),
		"wire.apply_us":                      ratio(sr.applyNs, sr.patches) / 1e3,
		"pool.checkout_waits_per_call":       ratio(ps1.CheckoutWaits-ps0.CheckoutWaits, calls),
		"pool.pipeline_stalls_per_call":      ratio(ps1.PipelineStalls-ps0.PipelineStalls, calls),
		"pool.rebinds_per_call":              ratio(ps1.TemplateRebinds-ps0.TemplateRebinds, calls),
		"pool.retries_per_call":              ratio(ps1.Retries-ps0.Retries, calls),
		"serverpool.handle_us":               spanMeanUs(srv) - spanMeanUs(app),
		"serverpool.fast_path_frac":          ratio(rs1.DiffDecodes-rs0.DiffDecodes, decodes),
		"serverpool.values_reparsed_per_req": ratio(rs1.ValuesReparsed-rs0.ValuesReparsed, reqs),
		"diffdeser.decode_us":                ratio(sr.decodeNs, sr.decodes) / 1e3,
		"diffdeser.full_parse_frac":          ratio(sr.full, sr.decodes),
		"soapdec.full_parse_us":              ratio(sr.fullParseNs, sr.decodes) / 1e3,
		"handler.us":                         spanMeanUs(app),
		"bench.unattributed_frac":            unattr,
		"bench.trace_overhead_frac":          (tracedP50 - untracedP50) / untracedP50,
	})

	fmt.Fprintf(out, "workload %s, seed %d: traced run of %s (spans and request capture on), then %s untraced\n", w.name, seed, half, half)
	fmt.Fprintf(out, "  %d traced calls, %d linked to all their spans; replays: %d core calls, %d captured requests (%d patches), %d decodes\n",
		done, linked, plain.calls, sr.requests, sr.patches, sr.decodes)
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-36s %12.4f %-6s %s\n", d.name, m[d.name].Value, d.unit, d.about)
	}
	printReconciliation(out, m, calls, reqs, cs0, cs1, ss0, ss1, tracedP50)
	path, err := writeSpans(traceDir, w.name, map[string][]span{
		"client.call": tr.calls, "client.request_write": spanList(writes), "client.response_read": spanList(reads),
		"server.transport_handler": srv, "server.app_handler": app,
	})
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "  spans written to %s\n", path)

	failed := tr.failed + un.failed + sr.mismatches
	if sr.mismatches > 0 {
		fmt.Fprintf(out, "  %d replayed bodies decoded differently by diffdeser and soapdec\n", sr.mismatches)
	}
	if err := errors.Join(tr.firstErr, un.firstErr); err != nil {
		fmt.Fprintf(out, "  first failure: %v\n", err)
	}
	return result{
		Correct:   failed == 0,
		Attempted: tr.attempted + un.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// printReconciliation puts the program's own stage sums per call beside
// the outside-in layer times, so a gap between the two views shows.
func printReconciliation(out *bufio.Writer, m map[string]metric, calls, reqs int64, cs0, cs1, ss0, ss1 []float64, p50 float64) {
	outside := map[trace.Stage]string{
		trace.StageSerialize:   fmt.Sprintf("%9.2f  core.serialize_us (replay)", m["core.serialize_us"].Value),
		trace.StageDeltaEncode: fmt.Sprintf("%9.2f  core.delta_encode_us (replay)", m["core.delta_encode_us"].Value),
		trace.StageWire: fmt.Sprintf("%9.2f  transport.write_us_per_call + read_wait_us_per_call",
			m["transport.write_us_per_call"].Value+m["transport.read_wait_us_per_call"].Value),
		trace.StageDeltaApply: fmt.Sprintf("%9.2f  wire.apply_us x wire.patch_frac (replay)", m["wire.apply_us"].Value*m["wire.patch_frac"].Value),
		trace.StageDecode:     fmt.Sprintf("%9.2f  diffdeser.decode_us (replay)", m["diffdeser.decode_us"].Value),
		trace.StageHandler:    fmt.Sprintf("%9.2f  handler.us", m["handler.us"].Value),
	}
	fmt.Fprintln(out, "  reconciliation, us per call: program stage sums (pool.Metrics().Stages, ServerMetrics.Stages) vs outside-in layers")
	row := func(side string, st trace.Stage, v float64) {
		fmt.Fprintf(out, "    %-6s %-15s %9.2f   %s\n", side, st, v, outside[st])
	}
	var server float64
	for i, st := range clientStages {
		row("client", st, (cs1[i]-cs0[i])*1e6/float64(max(calls, 1)))
	}
	for i, st := range serverStages {
		v := (ss1[i] - ss0[i]) * 1e6 / float64(max(reqs, 1))
		server += v
		row("server", st, v)
	}
	fmt.Fprintf(out, "    server stages total %9.2f   %9.2f  serverpool.handle_us + handler.us (transport handler span)\n",
		server, m["serverpool.handle_us"].Value+m["handler.us"].Value)
	fmt.Fprintf(out, "    traced latency p50 %9.2f us; bench.unattributed_frac %.4f\n", p50/1e3, m["bench.unattributed_frac"].Value)
}

// runAll is the one-command report: every workload untraced and traced
// (and untraced again on seed2 when given), then the gate self-check.
func runAll(out *bufio.Writer, seed, seed2 uint64, dur time.Duration) (result, error) {
	total := result{Correct: true, Metrics: map[string]metric{}}
	add := func(prefix string, r result) {
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[prefix+k] = v
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(out, "meta: %s\n", metaLine(w, seed))
		r, err := measure(out, w, seed, dur)
		if err != nil {
			return total, err
		}
		add(w.name+".", r)
		if seed2 != 0 {
			r2, err := measure(out, w, seed2, dur)
			if err != nil {
				return total, err
			}
			add(fmt.Sprintf("%s.seed%d.", w.name, seed2), r2)
			fmt.Fprintf(out, "  re-check, seed %d vs seed %d:\n", seed, seed2)
			for _, d := range endToEnd {
				a, b := r.Metrics[d.name].Value, r2.Metrics[d.name].Value
				fmt.Fprintf(out, "    %-22s %14.3f %14.3f %-6s (%+.1f%%)\n", d.name, a, b, d.unit, 100*(b-a)/a)
			}
		}
		out.Flush()
		rt, err := measureTraced(out, w, seed, dur)
		if err != nil {
			return total, err
		}
		add(w.name+".", rt)
		out.Flush()
	}
	for _, w := range workloads {
		if err := selfCheck(w, seed); err != nil {
			total.Correct = false
			fmt.Fprintf(out, "gate self-check on %s FAILED: %v\n", w.name, err)
			continue
		}
		fmt.Fprintf(out, "gate self-check on %s: one wrong expected digest failed exactly one call; a clean run failed none\n", w.name)
	}
	return total, nil
}

// selfCheck shows the correctness gate fires: with one expected digest
// recorded wrong, exactly that call must fail; without, none may.
func selfCheck(w *workload, seed uint64) error {
	s, err := newSystem(w, seed, clock{origin: time.Now()}, false)
	if err != nil {
		return err
	}
	defer s.close()
	bad := s.run(200*time.Millisecond, false, 5, 0)
	if bad.attempted <= 5 {
		return fmt.Errorf("only %d calls attempted", bad.attempted)
	}
	// A serial pool retries a failed call once, so the gate may see the
	// bad call twice; it must still fail exactly one call.
	fired := s.gate.failures.Load()
	if bad.failed != 1 || fired < 1 {
		return fmt.Errorf("wrong digest at call 5: %d calls failed, gate fired %d times; want 1 call failed", bad.failed, fired)
	}
	clean := s.run(200*time.Millisecond, false, -1, 0)
	if clean.failed != 0 || s.gate.failures.Load() != fired {
		return fmt.Errorf("clean run: %d calls failed (%v)", clean.failed, clean.firstErr)
	}
	return nil
}
