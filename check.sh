#!/bin/sh
# check.sh — the repo's full verification gate, run by CI and before
# every commit: formatting, vet, build, and the test suite under the
# race detector (the concurrent pool runtime requires -race to count).
set -eu
cd "$(dirname "$0")"

# Every background process a smoke starts is tracked, and one EXIT trap
# kills whatever is still running when check.sh stops, so a smoke that
# fails before its own kill leaves no server bound to its port for the
# next run's loadgen to talk to. A smoke that reaps its processes itself
# clears the list before it returns.
bg_pids=""
track() { bg_pids="$bg_pids $1"; }
cleanup() {
    for pid in $bg_pids; do
        kill -KILL "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    [ -z "${tmp:-}" ] || rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...

# Poison leg: the membufpoison tag overwrites released arenas with a
# sentinel byte, so an eviction path that diffs or decodes against
# released template bytes corrupts its output visibly in the budget
# tests instead of passing on a lucky stale read.
go test -tags membufpoison ./internal/membuf ./internal/replica \
    ./internal/pool ./internal/serverpool .

# One-LRU guard: the unified replica registry owns the repo's only
# recency list. Nothing outside internal/replica may import
# container/list or define an LRU type — a second bespoke copy creeping
# back in is exactly the drift the unified runtime removed.
lru_guard() {
    offenders=$(grep -rl '"container/list"' --include='*.go' . \
        | grep -v '^\./internal/replica/' || true)
    if [ -n "$offenders" ]; then
        echo "one-LRU guard: container/list imported outside internal/replica:" >&2
        echo "$offenders" >&2
        exit 1
    fi
    offenders=$(grep -rliE 'type +[a-z0-9_]*lru[a-z0-9_]* +(struct|interface)' --include='*.go' . \
        | grep -v '^\./internal/replica/' || true)
    if [ -n "$offenders" ]; then
        echo "one-LRU guard: LRU type defined outside internal/replica:" >&2
        echo "$offenders" >&2
        exit 1
    fi
    echo "check.sh: one-LRU guard ok"
}
lru_guard

# One-of-each guard: each merged mechanism keeps its single copy. The
# power-of-two bucket math lives only in the one latency histogram
# (internal/trace/hist.go); the deleted rpc client package and the
# retired single-mutex server endpoint (server.New) must not return;
# the client template store has one memory bound, the byte budget, so
# the per-group count cap (MaxPerGroup) must not come back beside it;
# doubles cross the wire through one codec, internal/xsdlex's
# shortest-digit encoder and exact parse fast path, so no non-test code
# formats them with strconv's AppendFloat or 'G', and strconv.ParseFloat
# stays in xsdlex (its fallback), promtext and bsoap-inspect (metric
# text, not SOAP values). Comment lines do not count.
one_of_each_guard() {
    offenders=$(grep -rl 'bits\.Len64' --include='*.go' . \
        | grep -v '^\./internal/trace/hist\.go$' || true)
    if [ -n "$offenders" ]; then
        echo "one-of-each guard: power-of-two bucket math outside internal/trace/hist.go:" >&2
        echo "$offenders" >&2
        exit 1
    fi
    offenders=$(grep -rlE '^package rpc(_test)?$' --include='*.go' . || true)
    if [ -n "$offenders" ]; then
        echo "one-of-each guard: a second client call path (package rpc) is back:" >&2
        echo "$offenders" >&2
        exit 1
    fi
    offenders=$(grep -rlE '(^|[^A-Za-z0-9_])server\.New\(' --include='*.go' . || true)
    if [ -n "$offenders" ]; then
        echo "one-of-each guard: server.New caller (use serverpool.New):" >&2
        echo "$offenders" >&2
        exit 1
    fi
    offenders=$(grep -rl 'MaxPerGroup' --include='*.go' ./internal || true)
    if [ -n "$offenders" ]; then
        echo "one-of-each guard: a per-group count cap (MaxPerGroup) is back; the byte budget is the template store's one bound:" >&2
        echo "$offenders" >&2
        exit 1
    fi
    offenders=$(grep -rnE "strconv\.AppendFloat|strconv\.FormatFloat\([^)]*'G'" \
        --include='*.go' ./internal ./cmd | grep -v '_test\.go:' \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
    if [ -n "$offenders" ]; then
        echo "one-of-each guard: a second double encoder (use xsdlex.AppendDouble):" >&2
        echo "$offenders" >&2
        exit 1
    fi
    offenders=$(grep -rn 'strconv\.ParseFloat' --include='*.go' ./internal ./cmd \
        | grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
        | grep -vE '^\./(internal/xsdlex|internal/promtext|cmd/bsoap-inspect)/' || true)
    if [ -n "$offenders" ]; then
        echo "one-of-each guard: a second double parser (use xsdlex.ParseDouble):" >&2
        echo "$offenders" >&2
        exit 1
    fi
    echo "check.sh: one-of-each guard ok"
}
one_of_each_guard

# Example smoke: short runs of the paper's application examples, so
# their client/server wiring is exercised, not just compiled. Each
# example exits nonzero on any failed call.
for ex in "condor -machines 50 -rounds 3" "mcs -files 20" "webindex -queries 5"; do
    go run ./examples/$ex > /dev/null
done
echo "check.sh: example smoke ok"

# Allocation gates: AllocsPerRun is unreliable under the race detector
# (instrumentation allocates), so the steady-state zero-alloc contract
# gets its own plain run — twice: once with the flight recorder off and
# once recording every call (BSOAP_TRACE=1), since "recording never
# allocates" is the tracer's core claim. The bench smoke
# (-benchtime=100x) confirms the figure benchmarks still execute and
# report allocs without paying for a full sweep.
go test -run 'TestSteadyState' .
BSOAP_TRACE=1 go test -count=1 -run 'TestSteadyState' .
# Propagation cost: the span header write and the slow-ring observe
# must be allocation-free too (their AllocsPerRun tests skip under
# -race, so they need this plain leg).
go test -run 'AllocFree|IsFree' ./internal/transport ./internal/trace
go test -run '^$' -bench 'Fig0[12]' -benchtime=100x -benchmem .

# Observability smoke: a real loadgen run against a discard server with
# the flight recorder on, then scrape both debug ports — /metrics must
# parse as valid Prometheus exposition (bsoap-inspect validates it) and
# /debug/trace must contain at least one complete call span.
obs_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    go build -o "$tmp/bsoap-inspect" ./cmd/bsoap-inspect
    "$tmp/bsoap-server" -mode discard -addr 127.0.0.1:29999 \
        -metrics 127.0.0.1:28124 -quiet &
    srv=$!
    track "$srv"
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29999 -workers 2 -duration 4s \
        -trace -metrics 127.0.0.1:28123 -max-err 0 &
    lg=$!
    track "$lg"
    sleep 2
    "$tmp/bsoap-inspect" metrics -url http://127.0.0.1:28123/metrics
    "$tmp/bsoap-inspect" metrics -url http://127.0.0.1:28124/metrics
    timeline=$("$tmp/bsoap-inspect" trace -url http://127.0.0.1:28123/debug/trace -spans 5)
    echo "$timeline" | grep -q 'start sendDoubles' || {
        echo "obs smoke: no call-start event in the trace" >&2; exit 1; }
    echo "$timeline" | grep -q 'done: ' || {
        echo "obs smoke: no completed call span in the trace" >&2; exit 1; }
    wait "$lg"
    kill "$srv" 2>/dev/null || true
    wait "$srv" 2>/dev/null || true
    bg_pids=""
    rm -rf "$tmp"
    echo "check.sh: observability smoke ok"
}
obs_smoke

# Server-scaling smoke: the serverpool runtime under 8 concurrent RPC
# clients must serve with zero failed calls and keep the server-side
# differential fast path at ≥90% — loadgen scrapes the server's own
# /metrics page and enforces both.
scaling_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29998 \
        -metrics 127.0.0.1:28125 -quiet > "$tmp/srv.log" 2>&1 &
    srv=$!
    track "$srv"
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29998 -workers 8 -duration 4s -rpc \
        -max-err 0 -server-metrics http://127.0.0.1:28125/metrics \
        -min-server-fast 90
    kill -TERM "$srv"
    wait "$srv" || { echo "scaling smoke: server exited nonzero" >&2; exit 1; }
    bg_pids=""
    rm -rf "$tmp"
    echo "check.sh: server-scaling smoke ok"
}
scaling_smoke

# Drain smoke: SIGTERM mid-load must drain gracefully — the server
# exits 0 having aborted zero in-flight requests (clients racing the
# closed listener see errors; server-side cleanliness is the contract).
drain_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29997 -quiet \
        > "$tmp/srv.log" 2>&1 &
    srv=$!
    track "$srv"
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29997 -workers 4 -duration 6s -rpc \
        > "$tmp/lg.log" 2>&1 &
    lg=$!
    track "$lg"
    sleep 1.5
    kill -TERM "$srv"
    wait "$srv" || { echo "drain smoke: server exited nonzero" >&2; exit 1; }
    wait "$lg" || true
    grep -q 'drain complete (0 in-flight requests aborted)' "$tmp/srv.log" || {
        echo "drain smoke: no clean-drain line in server output:" >&2
        cat "$tmp/srv.log" >&2
        exit 1
    }
    bg_pids=""
    rm -rf "$tmp"
    echo "check.sh: drain smoke ok"
}
drain_smoke

# Pipeline smoke: the async call path must actually pay. One worker,
# small messages (round-trip-bound, where pipelining is the paper's
# win), depth 8 against a read-ahead server: ≥4/3 the serial calls/s,
# zero failed calls, ≥90% server fast path. (The floor was 1.5× when
# the serial sender allocated per call; the allocation-free request
# head sped the serial baseline up enough that the localhost ratio now
# lands 1.4–1.9×.) A second run repeats the
# load through a 5% fault injector with the server draining mid-run:
# errors are fine, lost futures are not (loadgen exits nonzero if any
# future neither resolves nor errors).
pipeline_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29996 -read-ahead 8 \
        -metrics 127.0.0.1:28126 -quiet > "$tmp/srv.log" 2>&1 &
    srv=$!
    track "$srv"
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29996 -workers 1 -ops 8 -n 100 \
        -mix 100/0/0 -duration 3s -rpc -max-err 0 > "$tmp/serial.log"
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29996 -workers 1 -ops 8 -n 100 \
        -mix 100/0/0 -duration 3s -rpc -pipeline 8 -max-err 0 \
        -server-metrics http://127.0.0.1:28126/metrics -min-server-fast 90 \
        > "$tmp/piped.log"
    serial_rate=$(awk '/calls\/s/ {gsub("\\(",""); print int($3)}' "$tmp/serial.log")
    piped_rate=$(awk '/calls\/s/ {gsub("\\(",""); print int($3)}' "$tmp/piped.log")
    echo "check.sh: pipeline smoke: serial $serial_rate calls/s, depth-8 $piped_rate calls/s"
    [ "$piped_rate" -ge $((serial_rate * 4 / 3)) ] || {
        echo "pipeline smoke: depth-8 rate $piped_rate < 4/3x serial $serial_rate" >&2
        cat "$tmp/serial.log" "$tmp/piped.log" >&2
        exit 1
    }
    kill -TERM "$srv"
    wait "$srv" || { echo "pipeline smoke: server exited nonzero" >&2; exit 1; }
    bg_pids=""

    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29996 -read-ahead 8 -quiet \
        > "$tmp/srv2.log" 2>&1 &
    srv=$!
    track "$srv"
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29996 -workers 2 -ops 8 -n 100 \
        -duration 4s -rpc -pipeline 8 -chaos 0.05 -max-err 100 \
        > "$tmp/chaos.log" 2>&1 &
    lg=$!
    track "$lg"
    sleep 1.5
    kill -TERM "$srv"
    wait "$srv" || true # drain under chaos: client conns may abort mid-request
    wait "$lg" || {
        echo "pipeline chaos smoke: loadgen failed (lost futures?):" >&2
        cat "$tmp/chaos.log" >&2
        exit 1
    }
    bg_pids=""
    rm -rf "$tmp"
    echo "check.sh: pipeline smoke ok"
}
pipeline_smoke

# Memory-budget smoke: both sides run under a deliberately tiny
# template budget (64 KB — a couple of entries, far under the working
# set), so budget eviction churns continuously. The contract: zero
# failed calls (-max-err 0; eviction degrades calls to first-time
# sends / full parses, never errors) and budget evictions visible on
# both /metrics pages, read back through promtext.ReadValues
# (bsoap-inspect metrics -get).
budget_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    go build -o "$tmp/bsoap-inspect" ./cmd/bsoap-inspect
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29995 \
        -metrics 127.0.0.1:28127 -max-template-bytes 65536 -quiet \
        > "$tmp/srv.log" 2>&1 &
    srv=$!
    track "$srv"
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29995 -workers 4 -ops 8 -n 100 \
        -duration 4s -rpc -metrics 127.0.0.1:28128 \
        -max-template-bytes 65536 -max-err 0 > "$tmp/lg.log" 2>&1 &
    lg=$!
    track "$lg"
    sleep 2.5
    cev=$("$tmp/bsoap-inspect" metrics -url http://127.0.0.1:28128/metrics \
        -get 'bsoap_client_template_evictions_total{reason="budget"}')
    sev=$("$tmp/bsoap-inspect" metrics -url http://127.0.0.1:28127/metrics \
        -get 'bsoap_server_template_evictions_total{reason="budget"}')
    wait "$lg" || {
        echo "budget smoke: loadgen failed under the budget:" >&2
        cat "$tmp/lg.log" >&2
        exit 1
    }
    kill -TERM "$srv"
    wait "$srv" || { echo "budget smoke: server exited nonzero" >&2; exit 1; }
    echo "check.sh: budget smoke: $cev client / $sev server budget evictions"
    awk -v c="$cev" -v s="$sev" 'BEGIN { exit (c+0 > 0 && s+0 > 0) ? 0 : 1 }' || {
        echo "budget smoke: expected nonzero budget evictions on both sides" >&2
        exit 1
    }
    bg_pids=""
    rm -rf "$tmp"
    echo "check.sh: budget smoke ok"
}
budget_smoke

# Delta smoke: differential transmission under concurrency. 8 RPC
# workers on a content-match mix with negotiation on must save ≥50% of
# wire bytes vs what the calls represent (the config measures 61-63%;
# the floor leaves headroom for scheduler noise in replica binding),
# with zero failed calls, zero resyncs surfacing as errors, and the
# server-side differential fast path still ≥90% on the reconstructed
# bodies. The loadgen enforces all three and exits nonzero itself.
delta_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29993 \
        -metrics 127.0.0.1:28131 -quiet > "$tmp/srv.log" 2>&1 &
    srv=$!
    track "$srv"
    sleep 0.5
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29993 -workers 8 -replicas 16 \
        -n 400 -mix 100/0/0 -duration 4s -rpc -delta -max-err 0 \
        -min-delta-saved 50 \
        -server-metrics http://127.0.0.1:28131/metrics -min-server-fast 90 \
        > "$tmp/lg.log" || {
        echo "delta smoke: loadgen failed:" >&2
        cat "$tmp/lg.log" >&2
        exit 1
    }
    grep 'delta:' "$tmp/lg.log"
    kill -TERM "$srv"
    wait "$srv" || { echo "delta smoke: server exited nonzero" >&2; exit 1; }
    bg_pids=""
    rm -rf "$tmp"
    echo "check.sh: delta smoke ok"
}
delta_smoke

# Correlated-trace smoke: tracing on both processes, spans propagated
# over the wire, slow capture armed on both sides. The correlator must
# merge the two rings into cross-process timelines — its exit code
# asserts ≥1 merged call, zero orphaned server spans and zero bracket
# violations — and /debug/health must show nonzero slow captures on
# both sides.
correlate_smoke() {
    tmp=$(mktemp -d)
    go build -o "$tmp/bsoap-server" ./cmd/bsoap-server
    go build -o "$tmp/bsoap-loadgen" ./cmd/bsoap-loadgen
    go build -o "$tmp/bsoap-inspect" ./cmd/bsoap-inspect
    "$tmp/bsoap-server" -mode bench -addr 127.0.0.1:29994 \
        -metrics 127.0.0.1:28129 -trace -slow-threshold 1us -quiet \
        > "$tmp/srv.log" 2>&1 &
    srv=$!
    track "$srv"
    sleep 0.5
    # Bounded call count, untouched mix and per-leaf sampling keep both
    # rings far under one wrap — a lapped client ring sheds old spans
    # and the orphan gate below would trip on them. -hold keeps the
    # loadgen's debug endpoints alive after the run so both rings can
    # be scraped at rest.
    "$tmp/bsoap-loadgen" -addr 127.0.0.1:29994 -workers 8 -rpc -calls 200 \
        -mix 100/0/0 -trace -trace-sample 1000 -slow-threshold 1us \
        -metrics 127.0.0.1:28130 -max-err 0 -hold 30s > "$tmp/lg.log" 2>&1 &
    lg=$!
    track "$lg"
    held=0
    for _ in $(seq 1 100); do
        if grep -q 'holding debug endpoints' "$tmp/lg.log"; then held=1; break; fi
        kill -0 "$lg" 2>/dev/null || break
        sleep 0.2
    done
    [ "$held" = 1 ] || {
        echo "correlate smoke: loadgen never reached the hold window:" >&2
        cat "$tmp/lg.log" >&2
        exit 1
    }
    "$tmp/bsoap-inspect" health http://127.0.0.1:28130/debug/health \
        http://127.0.0.1:28129/debug/health > "$tmp/health.log"
    cat "$tmp/health.log"
    [ "$(grep -c 'slow capture' "$tmp/health.log")" = 2 ] || {
        echo "correlate smoke: expected slow-capture status from both processes" >&2
        exit 1
    }
    if grep -q ' 0 captured' "$tmp/health.log"; then
        echo "correlate smoke: a slow ring captured nothing" >&2
        exit 1
    fi
    "$tmp/bsoap-inspect" trace -correlate \
        http://127.0.0.1:28130/debug/trace http://127.0.0.1:28129/debug/trace \
        > "$tmp/corr.log" || {
        echo "correlate smoke: correlator failed:" >&2
        tail -40 "$tmp/corr.log" >&2
        exit 1
    }
    tail -1 "$tmp/corr.log"
    kill "$lg" 2>/dev/null || true
    wait "$lg" 2>/dev/null || true
    kill -TERM "$srv"
    wait "$srv" || { echo "correlate smoke: server exited nonzero" >&2; exit 1; }
    bg_pids=""
    rm -rf "$tmp"
    echo "check.sh: correlate smoke ok"
}
correlate_smoke

# Coverage floors on the runtime packages the call path spans. These
# are ratchets, not targets: set just under the measured rate so a
# change that quietly sheds tests fails here, while timing-dependent
# paths (retry, redial) keep a couple points of slack. Raise them when
# coverage rises.
coverage_gate() {
    go test -cover ./internal/pool ./internal/transport ./internal/serverpool \
        ./internal/replica \
        > /tmp/cover.$$ || { cat /tmp/cover.$$; rm -f /tmp/cover.$$; exit 1; }
    awk '
        /internal\/pool/       { floor = 74 }
        /internal\/transport/  { floor = 84 }
        /internal\/serverpool/ { floor = 83 }
        /internal\/replica/    { floor = 80 }
        /coverage:/ {
            for (i = 1; i <= NF; i++) if ($i == "coverage:") pct = $(i+1) + 0
            printf "check.sh: coverage %s: %.1f%% (floor %d%%)\n", $2, pct, floor
            if (pct < floor) { bad = 1 }
        }
        END { exit bad }
    ' /tmp/cover.$$ || {
        echo "coverage gate: a package fell below its floor" >&2
        rm -f /tmp/cover.$$
        exit 1
    }
    rm -f /tmp/cover.$$
}
coverage_gate

# Fuzz smoke: run every fuzz target briefly so a parser regression that
# only random inputs catch fails the gate, not a user. FUZZTIME=0 skips
# (the corpus-replay runs in `go test` above still cover committed
# crashers); raise it locally for a deeper soak.
FUZZTIME=${FUZZTIME:-10s}
if [ "$FUZZTIME" != "0" ]; then
    go test -run='^$' -fuzz='^FuzzParser$'      -fuzztime="$FUZZTIME" ./internal/xmlparse
    go test -run='^$' -fuzz='^FuzzDecode$'      -fuzztime="$FUZZTIME" ./internal/soapdec
    go test -run='^$' -fuzz='^FuzzInline$'      -fuzztime="$FUZZTIME" ./internal/multiref
    go test -run='^$' -fuzz='^FuzzReadRequest$' -fuzztime="$FUZZTIME" ./internal/transport
    go test -run='^$' -fuzz='^FuzzPipelineResponses$' -fuzztime="$FUZZTIME" ./internal/transport
    go test -run='^$' -fuzz='^FuzzDeltaFrame$'  -fuzztime="$FUZZTIME" ./internal/wire
    go test -run='^$' -fuzz='^FuzzDeltaFrame$'  -fuzztime="$FUZZTIME" ./internal/serverpool
    go test -run='^$' -fuzz='^FuzzUnescape$'    -fuzztime="$FUZZTIME" ./internal/xsdlex
    go test -run='^$' -fuzz='^FuzzParseDouble$' -fuzztime="$FUZZTIME" ./internal/xsdlex
    go test -run='^$' -fuzz='^FuzzAppendDouble$' -fuzztime="$FUZZTIME" ./internal/xsdlex
fi
echo "check.sh: all green"
