#!/usr/bin/env bash
# Offline verification gate: formatting, lints (when the toolchain has
# them), a release build, the full test suite, and a full-scale sweep
# whose per-job cycle counts must match the checked-in grid bit for
# bit (the fast-forward clock and any other perf work must never move
# a result). Everything here works with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "rustfmt not installed; skipping"
fi

step "cargo clippy"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy --workspace --release -- -D warnings
else
    echo "clippy not installed; skipping"
fi

step "cargo doc (rustdoc warnings are errors, so intra-doc links cannot rot)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

step "cargo build --release"
cargo build --release --workspace

step "perfbench build (compiles against the public serve/sim API)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

step "cargo test"
cargo test -q --workspace

step "grid regression gate (event-queue core, full scale, bit-for-bit)"
# The sweep writes into --out-dir, so verify never mutates the repo's
# checked-in results/. The event-queue core is the default, but the
# gate names it explicitly: this is the run that proves the
# discrete-event clock moves no result.
outdir="$(mktemp -d)"
serve_pid=""
loadgen_pid=""
cluster_pids=()
cleanup() {
    if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi
    if [ -n "$loadgen_pid" ]; then kill "$loadgen_pid" 2>/dev/null || true; fi
    for pid in ${cluster_pids[@]+"${cluster_pids[@]}"}; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$outdir"
}
trap cleanup EXIT
time cargo run --release -q -p warped-bench --bin sweep -- \
    --core event-queue --trace-dir traces --out-dir "$outdir/grid"

# Compare every per-cell row in full: label, cycles, and ff_cycles.
extract_cells() {
    python3 - "$1" <<'PY'
import json, sys
grid = json.load(open(sys.argv[1]))
for row in grid["rows"]:
    if row["label"].startswith("TOTAL"):
        continue
    values = " ".join(str(int(v)) for v in row["values"])
    print(f'{row["label"]} {values}')
PY
}
if ! diff <(extract_cells results/bench_grid.json) <(extract_cells "$outdir/grid/bench_grid.json"); then
    echo "verify: FAIL — sweep results diverged from results/bench_grid.json" >&2
    exit 1
fi
echo "grid rows match the checked-in results bit for bit"

# The same sweep also replayed the checked-in WGT1 corpus (the
# --trace-dir above); those 36 trace cells must match their committed
# grid bit for bit too.
if ! diff <(extract_cells results/bench_trace_grid.json) \
          <(extract_cells "$outdir/grid/bench_trace_grid.json"); then
    echo "verify: FAIL — trace replays diverged from results/bench_trace_grid.json" >&2
    exit 1
fi
echo "trace grid rows match the checked-in results bit for bit"

step "trace round-trip gate (capture -> parse -> replay, full scale, bit-for-bit)"
# tracegen --verify re-captures every corpus benchmark, parses the
# capture back, and replays it under all six techniques with the
# sanitizer armed — cycles, stats, and gating must match the native
# synthetic runs exactly. The fresh captures must also be
# byte-identical to the committed traces/ corpus, so the corpus can
# never drift from the generator.
time cargo run --release -q -p warped-bench --bin tracegen -- \
    --out "$outdir/traces" --verify
if ! diff -r traces "$outdir/traces"; then
    echo "verify: FAIL — regenerated captures differ from the traces/ corpus" >&2
    exit 1
fi
echo "six captures verified across all techniques and byte-identical to traces/"

step "architecture studies gate (1-4 SP clusters, issue widths 1-4, bit-for-bit)"
# The grids above run Fermi's two SP clusters at issue width two; these
# two studies are the only committed outputs that exercise cluster
# steering over one, three and four clusters and issue widths one to
# four, so they must reproduce their checked-in tables byte for byte.
for study in kepler_study width_study; do
    cargo run --release -q -p warped-bench --bin "$study" -- --scale 0.3 \
        >"$outdir/$study.txt"
    if ! diff "results/$study.txt" "$outdir/$study.txt"; then
        echo "verify: FAIL — $study diverged from results/$study.txt" >&2
        exit 1
    fi
done
echo "kepler_study and width_study match the checked-in results byte for byte"

step "figures gate (idle histograms, tuner epochs, gated-cycle split, non-default timing, bit-for-bit)"
# The grids pin cycles only. These figures are built from the
# accounting the per-cycle path integrates at edges: Figure 3 the idle
# periods, Figure 6 the tuner's epochs and critical wakeups, Figure 8
# the compensated and uncompensated cycles, Figure 11 non-default
# idle-detect, break-even and wakeup-delay values. Each runs at its
# results/collect.sh scale and must reproduce its checked-in table.
for fig in fig03:1.0 fig06:0.5 fig08:1.0 fig11:0.5; do
    name="${fig%%:*}"
    cargo run --release -q -p warped-bench --bin "$name" -- --scale "${fig##*:}" \
        >"$outdir/$name.txt"
    if ! diff "results/$name.txt" "$outdir/$name.txt"; then
        echo "verify: FAIL — $name diverged from results/$name.txt" >&2
        exit 1
    fi
done
echo "fig03, fig06, fig08 and fig11 match the checked-in results byte for byte"

step "sanitized sweep (stepped clock, invariant sanitizer armed)"
# The per-cycle reference clock keeps its own sanitized coverage: every
# cycle is stepped, so the sanitizer checks each one individually
# rather than through skipped spans.
cargo run --release -q -p warped-bench --bin sweep -- \
    --core stepped --scale 0.05 --sanitize --out-dir "$outdir/sanitized"

step "hierarchical memory gate (L1/L2 armed + sanitized, event-queue vs stepped cycles bit-for-bit)"
# The cycle-accurate cache hierarchy computes every latency at issue
# time, so both clocks must produce identical cycle counts with it
# armed (ff_cycles differs by design: stepping skips nothing); the
# sanitizer adds the cache-conservation invariants to every cell. The
# armed grid must also differ from the flat-model grid — otherwise the
# hierarchy silently failed to arm.
cargo run --release -q -p warped-bench --bin sweep -- \
    --core event-queue --scale 0.05 --sanitize --mem-hierarchy \
    --out-dir "$outdir/hier_eq"
cargo run --release -q -p warped-bench --bin sweep -- \
    --core stepped --scale 0.05 --sanitize --mem-hierarchy \
    --out-dir "$outdir/hier_stepped"
# Label and cycles only: drop each row's trailing ff_cycles value.
extract_cycles() { extract_cells "$1" | awk '{ sub(/ [0-9]+$/, ""); print }'; }
if ! diff <(extract_cycles "$outdir/hier_eq/bench_grid.json") \
          <(extract_cycles "$outdir/hier_stepped/bench_grid.json"); then
    echo "verify: FAIL — clocks diverge in cycles with the memory hierarchy armed" >&2
    exit 1
fi
cargo run --release -q -p warped-bench --bin sweep -- \
    --core event-queue --scale 0.05 --out-dir "$outdir/hier_flat"
if diff -q <(extract_cells "$outdir/hier_eq/bench_grid.json") \
           <(extract_cells "$outdir/hier_flat/bench_grid.json") >/dev/null; then
    echo "verify: FAIL — armed and flat grids are identical; hierarchy never armed" >&2
    exit 1
fi
echo "hierarchy-armed cycles match across both clocks and diverge from the flat model"

step "chaos smoke (injected panic is isolated; journal resume heals the grid)"
if cargo run --release -q -p warped-bench --bin sweep -- \
    --scale 0.02 --chaos 5 --out-dir "$outdir/chaos"; then
    echo "verify: FAIL — a poisoned sweep must exit nonzero" >&2
    exit 1
fi
test -f "$outdir/chaos/sweep_failures.json" \
    || { echo "verify: FAIL — missing failure manifest" >&2; exit 1; }
cargo run --release -q -p warped-bench --bin sweep -- \
    --scale 0.02 --resume --out-dir "$outdir/chaos"
test ! -f "$outdir/chaos/sweep_failures.json" \
    || { echo "verify: FAIL — manifest should clear after a clean resume" >&2; exit 1; }
echo "chaos cell isolated, manifest written, resume healed the grid"

step "telemetry smoke (timeline capture: valid, deterministic, monotone tracks)"
cargo run --release -q -p warped-bench --bin timeline -- \
    --bench hotspot --technique warped-gates --scale 0.1 --out-dir "$outdir/tl1"
cargo run --release -q -p warped-bench --bin timeline -- \
    --bench hotspot --technique warped-gates --scale 0.1 --out-dir "$outdir/tl2"
cmp "$outdir/tl1/trace.perfetto.json" "$outdir/tl2/trace.perfetto.json" \
    || { echo "verify: FAIL — timeline trace is not deterministic" >&2; exit 1; }
cmp "$outdir/tl1/metrics.jsonl" "$outdir/tl2/metrics.jsonl" \
    || { echo "verify: FAIL — timeline metrics are not deterministic" >&2; exit 1; }
python3 - "$outdir/tl1/trace.perfetto.json" <<'PY'
import json, sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "empty trace"

# Event cycle-stamps must be monotone per (pid, tid) track.
last = {}
for e in events:
    if "ts" not in e:
        continue
    key = (e["pid"], e["tid"])
    assert last.get(key, 0) <= e["ts"], f"track {key} went backwards"
    last[key] = e["ts"]

# Gating state lanes must exist for all four unit types.
names = {
    (e["pid"], e["tid"]): e["args"]["name"]
    for e in events
    if e["ph"] == "M" and e["name"] == "thread_name"
}
gated = {
    names[(e["pid"], e["tid"])]
    for e in events
    if e.get("ph") == "X" and e["name"] == "gated"
}
units = {t.rstrip("0123456789") for t in gated}
assert {"INT", "FP", "SFU", "LDST"} <= units, f"gated lanes only on {sorted(gated)}"
print(f"trace OK: {len(events)} events, gated lanes on {sorted(gated)}")
PY
echo "timeline capture valid, deterministic, and gates all four unit types"

step "serve smoke (HTTP service: healthy, grid-consistent run, cache hit, idle reaping, clean shutdown)"
servelog="$outdir/serve.log"
cargo run --release -q -p warped-serve --bin warped-serve -- \
    --addr 127.0.0.1:0 --trace-dir traces --keep-alive-secs 1 >"$servelog" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$servelog" 2>/dev/null && break
    sleep 0.1
done
port="$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$servelog")"
test -n "$port" || { echo "verify: FAIL — serve never bound a port" >&2; exit 1; }
python3 - "$port" <<'PY'
import json, sys, time, urllib.error, urllib.request

base = f"http://127.0.0.1:{sys.argv[1]}"
for _ in range(100):
    try:
        if urllib.request.urlopen(base + "/healthz", timeout=1).status == 200:
            break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit("serve never became healthy")

# One full-scale cell over HTTP must match the checked-in grid bit for
# bit (nw is the shortest benchmark, so this stays quick).
body = json.dumps({"benchmark": "nw", "technique": "baseline"}).encode()
def run():
    req = urllib.request.Request(
        base + "/run", data=body, headers={"Content-Type": "application/json"}
    )
    return urllib.request.urlopen(req, timeout=600).read()

first = json.loads(run())
grid = json.load(open("results/bench_grid.json"))
row = next(r for r in grid["rows"] if r["label"] == "nw/Baseline")
assert first["cycles"] == int(row["values"][0]), (first["cycles"], row)
assert first["ff_cycles"] == int(row["values"][1]), (first["ff_cycles"], row)

# The second identical request must be served from the cache,
# byte-identical to the first.
second = run()
assert json.loads(second) == first, "cached response diverged"
metrics = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
assert "warped_serve_cache_misses_total 1" in metrics, metrics
assert "warped_serve_cache_hits_total 1" in metrics, metrics
# The fresh simulation exported its event-core counters.
events = next(
    int(line.split()[1])
    for line in metrics.splitlines()
    if line.startswith("warped_serve_sim_events_dispatched_total ")
)
assert events > 0, metrics
assert "warped_serve_sim_heap_peak" in metrics, metrics
assert "warped_serve_sim_idle_cycles_skipped_total" in metrics, metrics
# Memory-hierarchy series exist but stay zero for flat-model requests.
assert "warped_serve_sim_mem_accesses_total 0" in metrics, metrics
assert "warped_serve_sim_mem_fills_total 0" in metrics, metrics

# A trace_ref cell served from the --trace-dir corpus must match the
# committed trace grid bit for bit.
tbody = json.dumps({"trace_ref": "nw", "technique": "baseline"}).encode()
treq = urllib.request.Request(
    base + "/run", data=tbody, headers={"Content-Type": "application/json"}
)
trace_report = json.loads(urllib.request.urlopen(treq, timeout=600).read())
tgrid = json.load(open("results/bench_trace_grid.json"))
trow = next(r for r in tgrid["rows"] if r["label"] == "trace:nw/Baseline")
assert trace_report["cycles"] == int(trow["values"][0]), (trace_report, trow)
metrics = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
assert "warped_serve_trace_workloads_loaded 6" in metrics, metrics
assert "warped_serve_trace_parse_errors_total 0" in metrics, metrics
assert "warped_serve_trace_cells_served_total 1" in metrics, metrics

# --keep-alive-secs 1: a keep-alive socket answered once and then left
# idle is closed by the server, and counted.
import socket
idle = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=5)
idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n")
wire = b""
while not wire.endswith(b"\r\n\r\nok\n"):
    chunk = idle.recv(512)
    assert chunk, f"closed before answering: {wire!r}"
    wire += chunk
assert b"connection: keep-alive" in wire.lower(), wire
time.sleep(1.5)
assert idle.recv(1) == b"", "the idle keep-alive socket was not closed"
idle.close()
metrics = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
assert "warped_serve_reaped_idle_sockets_total 1" in metrics, metrics

req = urllib.request.Request(base + "/shutdown", data=b"")
assert urllib.request.urlopen(req, timeout=10).status == 200
print(f"serve OK: nw/Baseline cycles {first['cycles']} match the grid; "
      f"2nd request hit the cache; trace:nw cycles {trace_report['cycles']} match; "
      "idle keep-alive socket reaped")
PY
wait "$serve_pid"
serve_pid=""
echo "serve smoke passed: healthy, grid-consistent, cached, idle socket reaped, clean shutdown"

step "serving tier (/sweep vs grid, loadgen keep-alive A/B, warm restart from disk)"
# A fresh server with the persistent cache enabled. Three identical
# concurrent full-grid sweeps must stream back cycles byte-identical
# to the checked-in grid while costing exactly one simulation per
# cell; loadgen then hammers the warm cache and must show keep-alive
# beating per-request connections by >= 2x; finally a restart over the
# same cache dir must answer the whole grid from disk with zero
# simulations.
start_serve() {
    servelog="$outdir/serve_tier.log"
    : >"$servelog"
    cargo run --release -q -p warped-serve --bin warped-serve -- \
        --addr 127.0.0.1:0 --cache-dir "$outdir/warm_cache" >"$servelog" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$servelog" 2>/dev/null && break
        sleep 0.1
    done
    port="$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$servelog")"
    test -n "$port" || { echo "verify: FAIL — serve never bound a port" >&2; exit 1; }
}
sweep_check() { # $1 = port, $2 = concurrent sweeps, $3 = expected simulations
    python3 - "$1" "$2" "$3" <<'PY'
import json, sys, threading, urllib.request

port, concurrency, want_sims = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
base = f"http://127.0.0.1:{port}"
grid = json.load(open("results/bench_grid.json"))
rows = [r for r in grid["rows"] if not r["label"].startswith("TOTAL")]
cells = [
    {"benchmark": r["label"].split("/")[0], "technique": r["label"].split("/")[1]}
    for r in rows
]
body = json.dumps({"cells": cells}).encode()

def sweep(out):
    req = urllib.request.Request(
        base + "/sweep", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=3600) as resp:
        assert resp.status == 200, resp.status
        out.extend(json.loads(line) for line in resp if line.strip())

streams = [[] for _ in range(concurrency)]
threads = [threading.Thread(target=sweep, args=(s,)) for s in streams]
for t in threads:
    t.start()
for t in threads:
    t.join()

for lines in streams:
    assert len(lines) == len(cells), f"{len(lines)} lines for {len(cells)} cells"
    for line in lines:
        assert "error" not in line, line
        row = rows[line["index"]]
        got = line["report"]["cycles"]
        assert got == int(row["values"][0]), (row["label"], got, row["values"])
        assert line["report"]["ff_cycles"] == int(row["values"][1]), row["label"]

metrics = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
counters = {
    line.split()[0]: int(line.split()[1])
    for line in metrics.splitlines()
    if line and not line.startswith("#")
}
sims = counters["warped_serve_simulations_total"]
assert sims == want_sims, f"{sims} simulations, wanted {want_sims}"
swept = counters["warped_serve_sweep_cells_total"]
assert swept == concurrency * len(cells), (swept, concurrency, len(cells))
deduped = counters["warped_serve_sweep_cells_deduped_total"]
assert deduped == swept - want_sims, (deduped, swept, want_sims)
if want_sims == 0:
    disk_hits = counters["warped_serve_disk_cache_hits_total"]
    assert disk_hits == len(cells), f"{disk_hits} disk hits for {len(cells)} cells"
print(
    f"{concurrency} sweep(s) x {len(cells)} cells match the grid bit for bit "
    f"({sims} simulations, {deduped} deduped)"
)
PY
}
stop_serve() {
    python3 -c "import sys, urllib.request; urllib.request.urlopen(
        urllib.request.Request(f'http://127.0.0.1:{sys.argv[1]}/shutdown', data=b''),
        timeout=10)" "$1"
    wait "$serve_pid"
    serve_pid=""
}

start_serve
sweep_check "$port" 3 108
time cargo run --release -q -p warped-serve --bin loadgen -- \
    --addr "127.0.0.1:$port" --scale 1 --check-grid results/bench_grid.json \
    --connections 6 --requests 600 --out "$outdir/serve_bench"
python3 - "$outdir/serve_bench/bench_serve.json" <<'PY'
import json, sys

bench = json.load(open(sys.argv[1]))
rates = {row["label"]: row["values"][0] for row in bench["rows"]}
ratio = rates["keep-alive"] / rates["per-request"]
assert ratio >= 2.0, f"keep-alive only {ratio:.2f}x per-request req/s: {rates}"
print(f"keep-alive {rates['keep-alive']:.0f} req/s = "
      f"{ratio:.1f}x per-request {rates['per-request']:.0f} req/s")
PY
stop_serve "$port"

start_serve
sweep_check "$port" 1 0
stop_serve "$port"
echo "serving tier passed: grid-faithful sweeps, keep-alive win, warm restart from disk"

step "cluster gate (3 sharded nodes, kill -9 one mid-sweep, 108 cells bit-for-bit)"
# Three warped-serve processes share one consistent-hash ring. A
# full-grid cluster sweep runs while one node is SIGKILLed mid-flight;
# the resilient client must retry/hedge the dead node's cells onto the
# survivors and still return every cell byte-identical to the grid.
# The nodes run as plain release binaries (not `cargo run`) so the
# kill hits the server itself, and the survivors must drain cleanly.
read -r -a cports <<<"$(python3 - <<'PY'
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks:
    s.close()
PY
)"
peers="127.0.0.1:${cports[0]},127.0.0.1:${cports[1]},127.0.0.1:${cports[2]}"
for p in "${cports[@]}"; do
    ./target/release/warped-serve --addr "127.0.0.1:$p" --peers "$peers" \
        >"$outdir/cluster_$p.log" 2>&1 &
    cluster_pids+=("$!")
done
for p in "${cports[@]}"; do
    python3 - "$p" <<'PY'
import sys, time, urllib.request
for _ in range(100):
    try:
        if urllib.request.urlopen(
            f"http://127.0.0.1:{sys.argv[1]}/healthz", timeout=1
        ).status == 200:
            break
    except OSError:
        time.sleep(0.1)
else:
    sys.exit(f"node 127.0.0.1:{sys.argv[1]} never became healthy")
PY
done
clusterlog="$outdir/cluster_loadgen.log"
./target/release/loadgen --cluster "$peers" --scale 1 \
    --check-grid results/bench_grid.json >"$clusterlog" 2>&1 &
loadgen_pid=$!
# Kill the node once it has finished its first simulation, so the kill
# lands mid-sweep however fast this machine simulates (a full-scale
# cluster sweep can finish in under 4 s, so a fixed sleep can miss it).
python3 - "${cports[0]}" <<'PY'
import sys, time, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}/metrics"
for _ in range(3000):
    page = urllib.request.urlopen(url, timeout=1).read().decode()
    for line in page.splitlines():
        name, _, value = line.partition(" ")
        if name == "warped_serve_simulations_total" and float(value) >= 1:
            sys.exit(0)
    time.sleep(0.01)
sys.exit("node never finished a simulation")
PY
kill -9 "${cluster_pids[0]}"
echo "SIGKILLed node 127.0.0.1:${cports[0]} mid-sweep"
if ! wait "$loadgen_pid"; then
    loadgen_pid=""
    cat "$clusterlog" >&2
    echo "verify: FAIL — cluster sweep did not survive the node kill" >&2
    exit 1
fi
loadgen_pid=""
grep -q "check-grid: 108 cells bit-identical" "$clusterlog" || {
    cat "$clusterlog" >&2
    echo "verify: FAIL — cluster sweep not grid-faithful" >&2
    exit 1
}
grep "cluster counters:" "$clusterlog"
retries="$(sed -n 's/.*cluster counters: retries=\([0-9]*\).*/\1/p' "$clusterlog")"
hedged="$(sed -n 's/.*hedged=\([0-9]*\).*/\1/p' "$clusterlog")"
test "${retries:-0}" -ge 1 || {
    cat "$clusterlog" >&2
    echo "verify: FAIL — the node kill left no retry trace in the counters" >&2
    exit 1
}
# The client routes every cell itself and marks each request, so a
# survivor serves whatever lands on it and never forwards — not even
# the dead owner's cells retried onto it.
for i in 1 2; do
    python3 - "${cports[$i]}" <<'PY'
import sys, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}/metrics"
page = urllib.request.urlopen(url, timeout=10).read().decode()
counters = {
    line.split()[0]: int(line.split()[1])
    for line in page.splitlines()
    if line and not line.startswith("#")
}
for name in (
    "warped_serve_cluster_forwarded_requests_total",
    "warped_serve_cluster_forward_failures_total",
):
    assert counters[name] == 0, f"survivor {sys.argv[1]}: {name} = {counters[name]}"
print(f"survivor {sys.argv[1]}: no forwards, no forward failures")
PY
done
for i in 1 2; do
    python3 -c "import sys, urllib.request; urllib.request.urlopen(
        urllib.request.Request(f'http://127.0.0.1:{sys.argv[1]}/shutdown', data=b''),
        timeout=10)" "${cports[$i]}"
    wait "${cluster_pids[$i]}"
done
cluster_pids=()
echo "cluster gate passed: 108 cells bit-for-bit after a node kill (retries=$retries hedged=$hedged)"

echo
echo "verify: all checks passed"
