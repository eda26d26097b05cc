package serverpool

import (
	"sync/atomic"
	"testing"
)

// The scaling benchmark: 8 concurrent clients, each with its own stable
// request shape, against the sharded runtime with a replica per
// connection. A single shared decoder would hold at most
// diffdeser.MaxTemplatesPerKey templates per operation, so eight
// distinct shapes would thrash it into constant full parses;
// per-connection replicas keep every client on the differential fast
// path with no shared lock (fastpath% reports it).

const benchClients = 8

func benchBodies(b *testing.B) [][]byte {
	bodies := make([][]byte, benchClients)
	for i := range bodies {
		c := newClient(64 + 8*i) // distinct stable shape per client
		bodies[i] = c.body(b)
	}
	return bodies
}

func BenchmarkShardedRuntime8Clients(b *testing.B) {
	rt := newSumRuntime(Options{DifferentialDeserialization: true})
	bodies := benchBodies(b)
	var next atomic.Int64
	b.SetParallelism(benchClients)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1)-1) % benchClients
		body := bodies[id]
		connID := uint64(id + 1)
		for pb.Next() {
			if _, err := rt.Handle(connID, "", body); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := rt.Stats()
	if st.Requests > 0 {
		b.ReportMetric(float64(st.DiffDecodes)/float64(st.Requests)*100, "fastpath%")
	}
}
