package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/diffdeser"
	"bsoap/internal/fastconv"
	"bsoap/internal/server"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// Replay bounds: each replay stops at whichever limit it reaches first.
const (
	replayCalls  = 20000
	replayBudget = 1500 * time.Millisecond
	replayValues = 200000
)

// coreReplay is the engine's view of a workload's message stream.
type coreReplay struct {
	calls                          int64
	ns                             int64
	firstTime, content, psm, parts int64
	rewritten, shifts, steals, tag int64
	doubles                        []float64
}

// replayCore regenerates the workload's message sequence from the seed
// and drives it through two core.Stubs in lockstep, one onto a plain
// in-memory sink and one onto a delta-capable one, timing each Call, so
// both see the same machine conditions and their difference is the
// patch-frame encode. The first call of every message is set-up and is
// left out of the totals. The plain replay records its double values.
func replayCore(w *workload, seed uint64) (plain, delta coreReplay, err error) {
	plain.doubles = make([]float64, 0, replayValues)
	replays := [2]*coreReplay{&plain, &delta}
	stubs := [2]*core.Stub{
		core.NewStub(engineConfig, transport.NewDiscardSink()),
		core.NewStub(engineConfig, transport.NewDeltaDiscardSink()),
	}
	for g := 0; g < w.goroutines; g++ {
		callers := [2]*caller{newCaller(w, seed, g), newCaller(w, seed, g)}
		for k, c := range callers {
			for _, m := range c.msgs {
				if _, err := stubs[k].Call(m.msg); err != nil {
					return plain, delta, err
				}
			}
		}
		for _, m := range callers[0].msgs {
			m.rec = &plain.doubles
		}
		stop := time.Now().Add(replayBudget / time.Duration(w.goroutines))
		for i := 0; i < replayCalls/w.goroutines && time.Now().Before(stop); i++ {
			for k, c := range callers {
				m := c.advance()
				t0 := time.Now()
				ci, err := stubs[k].Call(m.msg)
				replays[k].ns += int64(time.Since(t0))
				if err != nil {
					return plain, delta, err
				}
				replays[k].note(ci)
			}
		}
	}
	return plain, delta, nil
}

func (cr *coreReplay) note(ci core.CallInfo) {
	cr.calls++
	switch ci.Match {
	case core.FirstTime:
		cr.firstTime++
	case core.ContentMatch:
		cr.content++
	case core.StructuralMatch:
		cr.psm++
	case core.PartialMatch:
		cr.parts++
	}
	cr.rewritten += int64(ci.ValuesRewritten)
	cr.shifts += int64(ci.Shifts)
	cr.steals += int64(ci.Steals)
	cr.tag += int64(ci.TagShifts)
}

// writeDoubleNs times fastconv.WriteDouble over a recorded value stream,
// passing over it until at least 100ms have been measured.
func writeDoubleNs(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var buf [32]byte
	var n int64
	sink := 0
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		for _, v := range vals {
			sink += fastconv.WriteDouble(buf[:], v)
		}
		n += int64(len(vals))
	}
	el := time.Since(t0)
	if sink == 0 {
		return 0
	}
	return float64(el.Nanoseconds()) / float64(n)
}

// serverReplay is the server path's view of the captured request
// streams, replayed through each layer's public function.
type serverReplay struct {
	requests                int64
	parseNs                 int64
	patches, applyNs        int64
	decodes, decodeNs, full int64
	fullParseNs             int64
	mismatches              int64 // differential decode disagreed with a full parse
}

// replayServer parses each captured client request stream with
// transport.ReadRequestInto, applies patch frames to their bases with
// wire.ParseDeltaFrame and DeltaFrame.Apply, and decodes every
// reconstructed body with diffdeser (one deserializer per connection, as
// the server keeps) and with a cold soapdec parse.
func replayServer(streams [][]byte) (serverReplay, error) {
	var sr serverReplay
	for _, stream := range streams {
		stop := time.Now().Add(replayBudget / time.Duration(max(1, len(streams))))
		br := bufio.NewReaderSize(bytes.NewReader(stream), 64<<10)
		var req transport.Request
		var frame wire.DeltaFrame
		bases := map[uint64][]byte{}
		dd := diffdeser.New(lookupSchema)
		for time.Now().Before(stop) {
			t0 := time.Now()
			err := transport.ReadRequestInto(br, &req)
			parse := time.Since(t0)
			if err != nil {
				if errors.Is(err, transport.ErrConnClosed) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
					break // end of the captured prefix
				}
				return sr, err
			}
			sr.requests++
			sr.parseNs += int64(parse)
			body := req.Body
			switch req.DeltaMode {
			case transport.DeltaSync:
				bases[req.DeltaTID] = append(bases[req.DeltaTID][:0], body...)
			case transport.DeltaPatch:
				t0 = time.Now()
				if err := wire.ParseDeltaFrame(&frame, body); err != nil {
					return sr, err
				}
				base, ok := bases[frame.TID]
				if !ok {
					return sr, errors.New("replay: patch frame for a template never synced")
				}
				if err := frame.Apply(base); err != nil {
					return sr, err
				}
				sr.applyNs += int64(time.Since(t0))
				sr.patches++
				body = base
			}
			op, err := server.PeekOperation(body)
			if err != nil {
				return sr, err
			}
			t0 = time.Now()
			msg, info, err := dd.Decode(op, body)
			sr.decodeNs += int64(time.Since(t0))
			if err != nil {
				return sr, err
			}
			sr.decodes++
			if info.FullParse {
				sr.full++
			}
			got := messageDigest(msg)
			t0 = time.Now()
			res, err := soapdec.Decode(body, lookupSchema, true)
			sr.fullParseNs += int64(time.Since(t0))
			if err != nil {
				return sr, err
			}
			if messageDigest(res.Msg) != got {
				sr.mismatches++
			}
		}
	}
	return sr, nil
}
