package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"

	"bsoap/internal/transport"
)

// countingReader counts the bytes a bufio.Reader has pulled, so stream
// offsets of parsed messages are pulled − buffered.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// extent is one HTTP message's byte range within a connection stream.
type extent struct{ a, b int64 }

// requestExtents splits a captured request stream into requests.
func requestExtents(stream []byte) []extent {
	cr := &countingReader{r: bytes.NewReader(stream)}
	br := bufio.NewReaderSize(cr, 64<<10)
	var req transport.Request
	var out []extent
	for {
		a := cr.n - int64(br.Buffered())
		if transport.ReadRequestInto(br, &req) != nil {
			return out
		}
		out = append(out, extent{a, cr.n - int64(br.Buffered())})
	}
}

// responseExtents splits a captured response stream and reads the call
// id each response echoes (0 for responses without one, e.g. resyncs).
func responseExtents(stream []byte) ([]extent, []uint64) {
	cr := &countingReader{r: bytes.NewReader(stream)}
	br := bufio.NewReaderSize(cr, 64<<10)
	var resp transport.Response
	var out []extent
	var ids []uint64
	for {
		a := cr.n - int64(br.Buffered())
		if transport.ReadResponseInto(br, &resp) != nil {
			return out, ids
		}
		out = append(out, extent{a, cr.n - int64(br.Buffered())})
		ids = append(ids, responseID(resp.Body))
	}
}

// ioSpan returns the interval from the start of the first I/O call that
// moved a byte of e to the end of the last one; ok is false when the
// extent was moved before tracing started.
func ioSpan(recs []ioRec, e extent) (span, bool) {
	i := sort.Search(len(recs), func(i int) bool { return recs[i].off+recs[i].n > e.a })
	if i == len(recs) || recs[i].off > e.a {
		return span{}, false
	}
	j := i
	for j+1 < len(recs) && recs[j+1].off < e.b {
		j++
	}
	if recs[j].off+recs[j].n < e.b {
		return span{}, false
	}
	return span{t0: recs[i].t0, t1: recs[j].t1}, true
}

// linkedSpans joins, per call id, the client socket spans of its
// request write and response read. Requests and responses pair up in
// order on each connection (HTTP/1.1), and the response carries the id.
func linkedSpans(conns []*benchConn) (writes, reads map[uint64]span) {
	writes, reads = map[uint64]span{}, map[uint64]span{}
	for _, c := range conns {
		c.wr.mu.Lock()
		c.rd.mu.Lock()
		reqs := requestExtents(c.wr.capture)
		resps, ids := responseExtents(c.rd.capture)
		for k := 0; k < len(reqs) && k < len(resps); k++ {
			if ids[k] == 0 {
				continue
			}
			w, okw := ioSpan(c.wr.recs, reqs[k])
			r, okr := ioSpan(c.rd.recs, resps[k])
			if okw && okr {
				writes[ids[k]], reads[ids[k]] = w, r
			}
		}
		c.rd.mu.Unlock()
		c.wr.mu.Unlock()
	}
	return writes, reads
}

// spanList flattens linked spans, carrying each one's call id.
func spanList(byID map[uint64]span) []span {
	out := make([]span, 0, len(byID))
	for id, s := range byID {
		s.id = id
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].t0 < out[j].t0 })
	return out
}

// unattributed returns the share of linked calls' client latency that
// no layer span covers (request write, server handler, response read),
// and how many calls it was measured over.
func unattributed(calls []span, writes, reads map[uint64]span, srv []span) (float64, int) {
	byID := make(map[uint64]span, len(srv))
	for _, s := range srv {
		if s.id != 0 {
			byID[s.id] = s
		}
	}
	var total, uncovered int64
	n := 0
	for _, c := range calls {
		w, okw := writes[c.id]
		r, okr := reads[c.id]
		s, oks := byID[c.id]
		if !okw || !okr || !oks {
			continue
		}
		n++
		total += c.t1 - c.t0
		uncovered += c.t1 - c.t0 - coverage(c, []span{w, r, s})
	}
	if total == 0 {
		return 0, 0
	}
	return float64(uncovered) / float64(total), n
}

// coverage is the length of the union of parts clipped to c.
func coverage(c span, parts []span) int64 {
	sort.Slice(parts, func(i, j int) bool { return parts[i].t0 < parts[j].t0 })
	var covered int64
	end := c.t0
	for _, p := range parts {
		a, b := max(p.t0, end), min(p.t1, c.t1)
		if b > a {
			covered += b - a
			end = b
		}
	}
	return covered
}

// writeSpans writes every span of the traced run as JSON lines under
// dir, one file per workload holding its latest traced run.
func writeSpans(dir, name string, layers map[string][]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, layer := range names {
		for _, s := range layers[layer] {
			if err := enc.Encode(struct {
				Layer string `json:"layer"`
				ID    uint64 `json:"id"`
				T0    int64  `json:"t0_ns"`
				T1    int64  `json:"t1_ns"`
			}{layer, s.id, s.t0, s.t1}); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
