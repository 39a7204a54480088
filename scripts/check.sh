#!/usr/bin/env bash
# Full verification: the tier-1 build + test pass, the zsbench benchmark
# built and self-checked (zsbench/check.py: determinism, output checks,
# transparent wrappers), a Release build with the local compiler, then a
# sanitizer pass (address + undefined) over the fault-tolerance-critical
# suites, the federation suite (whose store keeps raw series pointers in
# its dirty list), the common suite (CpuSet's word scans and the
# fixed-point formatter), the trace suite (the JSON writer's escaper and
# to_chars buffers) and the HTTP suite (response framing and the request
# parser), then the Figure 8 overhead benchmark, which
# exits nonzero past the paper's < 0.5% budget, then a live telemetry
# smoke test: a real zerosum-aggd --http-port --data-dir scraped over
# loopback HTTP, the exposition validated with scripts/promlint.py, the
# query/dashboard plane (GET /api/query, /api/stats, the zerosum-post
# --http-query client) answered end to end, and the three query entry
# points of the same daemon (the wire's zerosum-post --agg-query, the
# read plane's GET /api/query, and after the SIGTERM seal the offline
# zerosum-post --tsdb-query) listing the same series.
# Finally a live federation smoke: three zerosum-aggd processes form a
# node -> group -> root tree via the root's catalog and a monitored run
# discovered through ZS_AGG_CATALOG must surface at the root, as sources
# and as forwarded windows its read plane answers from, under only the
# metric names the run published.
#
# Usage: scripts/check.sh [--no-sanitize]
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=1
if [[ "${1:-}" == "--no-sanitize" ]]; then
  SANITIZE=0
fi

echo "=== tier-1: build + full ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure --timeout 120 -j "$(nproc)"

echo "=== benchmark build + self-check (zsbench/check.py) ==="
# Builds the benchmark driver into the gitignored .bench_build/ and runs
# each workload twice: nothing else compiles zsbench/ against src/.
python3 zsbench/check.py

echo "=== Release build (-O3 -Werror) ==="
# CI's Release leg builds and tests with gcc 13; this one builds with
# whatever compiler runs the script, whose -O3-only diagnostics (gcc 12's
# -Wrestrict false positives on std::string concatenation) the default
# RelWithDebInfo build misses.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$(nproc)"

if [[ "$SANITIZE" == 1 ]]; then
  echo "=== sanitizer pass (address,undefined) ==="
  cmake -B build-asan -S . -DZEROSUM_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$(nproc)"
  # The suites that exercise the /proc parsers, fault injection, the
  # monitor thread, and the concurrent publish/subscribe + aggregation
  # paths — where memory bugs under fault load would hide — plus the
  # federation suite, whose forwarders drain the store's list of raw
  # series pointers that evictSource() must prune, and the common
  # and core suites, whose CpuSet word scans and CSV row buffer do raw
  # index and buffer arithmetic, and the trace and HTTP suites, whose
  # JSON escaper, to_chars buffers and response framing do raw offset
  # arithmetic on the query answer path.
  # (Run the binaries directly: ctest registers individual gtest case
  # names, so filtering by executable name matches nothing.)
  for t in test_common test_procfs test_fault_injection test_core \
           test_export test_aggregator test_federation test_tsdb \
           test_chaos test_trace test_http; do
    ./build-asan/tests/"$t"
  done
fi

echo "=== monitoring overhead benchmark (< 0.5% budget) ==="
# --out keeps the artifact in build/bench/ whatever the caller's cwd.
./build/bench/bench_figure8_overhead --out "$PWD/build/bench/BENCH_overhead.json"

echo "=== live telemetry smoke test (/metrics scrape + promlint) ==="
REPO="$PWD"
SMOKE_DIR="$(mktemp -d)"
./build/tools/zerosum-aggd --port 0 --http-port 0 --data-dir "$SMOKE_DIR/tsdb" \
  > "$SMOKE_DIR/aggd.log" 2>&1 &
AGGD_PID=$!
trap 'kill "$AGGD_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  grep -q "http on" "$SMOKE_DIR/aggd.log" 2>/dev/null && break
  sleep 0.1
done
WIRE_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SMOKE_DIR/aggd.log")"
HTTP_PORT="$(sed -n 's/.*http on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SMOKE_DIR/aggd.log")"
# A short monitored run feeds stamped batches through the live wire so
# the per-stage latency histograms have something to show.
(cd "$SMOKE_DIR" &&
 ZS_AGG_PORT="$WIRE_PORT" "$REPO/build/tools/zerosum-run" \
   "$REPO/build/tools/demo_victim" 2 2500 > run.log 2>&1)
# curl may be absent in minimal images; python3 urllib always works.
python3 - "$HTTP_PORT" "$SMOKE_DIR" <<'PY'
import sys, urllib.request
port, outdir = sys.argv[1], sys.argv[2]
text = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
open(f"{outdir}/metrics.txt", "w").write(text)
health = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/healthz", timeout=10).read().decode()
assert '"ready":true' in health, health
for stage in ("enqueue_to_send", "send_to_ingest",
              "ingest_to_durable", "roundtrip"):
    needle = f"zs_agg_daemon_latency_{stage}_seconds_count"
    line = next((l for l in text.splitlines() if l.startswith(needle)), None)
    assert line is not None, f"missing {needle}"
    assert float(line.rsplit(" ", 1)[1]) > 0, f"{needle} is zero: {line}"
print("smoke: /healthz ready; all four latency stages populated")
PY
python3 scripts/promlint.py "$SMOKE_DIR/metrics.txt"
# The query/dashboard plane over the same live daemon: a GET-form query
# and the service's stats surface, plus the zerosum-post client path.
python3 - "$HTTP_PORT" <<'PY'
import json, sys, urllib.request
port = sys.argv[1]
snap = json.load(urllib.request.urlopen(
    f"http://127.0.0.1:{port}/api/query?op=snapshot", timeout=10))
assert len(snap["series"]) > 0, snap
stats = json.load(urllib.request.urlopen(
    f"http://127.0.0.1:{port}/api/stats", timeout=10))
assert stats["queries"]["served"] >= 1, stats
print(f"smoke: query plane serving ({len(snap['series'])} series, "
      f"generation {snap['generation']})")
PY
./build/tools/zerosum-post --agg-port "$HTTP_PORT" --http-query stats \
  | python3 -c 'import json,sys; json.load(sys.stdin)'
# One dialect, three entry points: the wire (answered from the tsdb
# engine) and the read plane (from its store snapshot, refreshed at most
# every 0.25 s) must list the same rank-0 series...
python3 - "$REPO/build/tools/zerosum-post" "$WIRE_PORT" "$HTTP_PORT" \
  "$SMOKE_DIR/keys.json" <<'PY'
import json, subprocess, sys, time, urllib.request
post, wire_port, http_port, keys_out = sys.argv[1:5]
request = '{"op":"snapshot","rank":0}'
def keys(doc):
    return sorted([s["job"], s["rank"], s["metric"]] for s in doc["series"])
deadline = time.time() + 15
while True:
    wire = keys(json.loads(subprocess.run(
        [post, "--agg-port", wire_port, "--agg-query", request],
        check=True, capture_output=True, text=True).stdout))
    plane = keys(json.load(urllib.request.urlopen(
        f"http://127.0.0.1:{http_port}/api/query?op=snapshot&rank=0",
        timeout=10)))
    if wire and wire == plane:
        break
    if time.time() > deadline:
        raise SystemExit(f"wire lists {len(wire)} rank-0 series, "
                         f"the read plane {len(plane)}")
    time.sleep(0.3)
json.dump(wire, open(keys_out, "w"))
print(f"smoke: wire and read plane list the same {len(wire)} series")
PY
# ...and so must the sealed data dir, read offline.
kill -TERM "$AGGD_PID"
wait "$AGGD_PID"
trap - EXIT
grep -q "sealed" "$SMOKE_DIR/aggd.log"
./build/tools/zerosum-post --tsdb-query '{"op":"snapshot","rank":0}' \
  --data-dir "$SMOKE_DIR/tsdb" > "$SMOKE_DIR/offline.json"
python3 - "$SMOKE_DIR/keys.json" "$SMOKE_DIR/offline.json" <<'PY'
import json, sys
live = json.load(open(sys.argv[1]))
offline = sorted([s["job"], s["rank"], s["metric"]]
                 for s in json.load(open(sys.argv[2]))["series"])
assert offline == live, f"offline lists {len(offline)} series, live {len(live)}"
print(f"smoke: the sealed dir lists the same {len(offline)} series offline")
PY
rm -rf "$SMOKE_DIR"

echo "=== live federation smoke (node -> group -> root over TCP) ==="
# Three real zerosum-aggd processes form a tree through the root's
# catalog; a monitored run discovers the node daemon via ZS_AGG_CATALOG
# and its records must surface at the root as hop-2 forwarded sources
# and as forwarded windows the root's read plane answers from.  (Source
# refreshes ride window-less kForward frames, so a hop-2 source alone
# does not show that any window arrived.)
FED_DIR="$(mktemp -d)"
GROUP_PID=""
NODE_PID=""
./build/tools/zerosum-aggd --role root --port 0 --http-port 0 \
  > "$FED_DIR/root.log" 2>&1 &
ROOT_PID=$!
trap 'kill "$ROOT_PID" "$GROUP_PID" "$NODE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  grep -q "http on" "$FED_DIR/root.log" 2>/dev/null && break
  sleep 0.1
done
ROOT_WIRE="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$FED_DIR/root.log")"
ROOT_HTTP="$(sed -n 's/.*http on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$FED_DIR/root.log")"
CATALOG="127.0.0.1:$ROOT_WIRE"
./build/tools/zerosum-aggd --role group --port 0 --catalog "$CATALOG" \
  > "$FED_DIR/group.log" 2>&1 &
GROUP_PID=$!
./build/tools/zerosum-aggd --role node --port 0 --catalog "$CATALOG" \
  > "$FED_DIR/node.log" 2>&1 &
NODE_PID=$!
# Wait for both tiers to register with the catalog before the run
# starts, so client-side discovery cannot race the announcements.
python3 - "$ROOT_HTTP" <<'PY'
import json, sys, time, urllib.request
port = sys.argv[1]
deadline = time.time() + 15
while True:
    h = json.load(urllib.request.urlopen(
        f"http://127.0.0.1:{port}/healthz", timeout=10))
    if h["fanin"]["catalog_announces"] >= 2:
        break
    if time.time() > deadline:
        raise SystemExit(f"daemons never announced to the catalog: {h}")
    time.sleep(0.2)
PY
(cd "$FED_DIR" &&
 ZS_AGG_CATALOG="$CATALOG" "$REPO/build/tools/zerosum-run" \
   "$REPO/build/tools/demo_victim" 2 2500 > run.log 2>&1)
python3 - "$ROOT_HTTP" <<'PY'
import json, sys, time, urllib.request
port = sys.argv[1]
deadline = time.time() + 15
while True:
    h = json.load(urllib.request.urlopen(
        f"http://127.0.0.1:{port}/healthz", timeout=10))
    by_hop = h["sources"]["by_hop"]
    windows = h["fanin"]["forward_windows"]
    snap = json.load(urllib.request.urlopen(
        f"http://127.0.0.1:{port}/api/query?op=snapshot", timeout=10))
    hop2 = any(int(hops) >= 2 and count > 0 for hops, count in by_hop.items())
    if hop2 and windows > 0 and len(snap["series"]) > 0:
        print(f"smoke: root sees federated sources {by_hop}, {windows} "
              f"windows forwarded, {len(snap['series'])} series answered")
        break
    if time.time() > deadline:
        raise SystemExit(f"no hop-2 source and forwarded windows reached "
                         f"the root ({len(snap['series'])} series): {h}")
    time.sleep(0.3)
PY
# Names cross each hop as connection-scoped references into a table of
# text the hop declared; three processes mean three interners, so a
# process-local id leaking onto the wire would surface at the root as a
# name the run never published.
python3 - "$ROOT_HTTP" <<'PY'
import json, re, sys, urllib.request
port = sys.argv[1]
series = json.load(urllib.request.urlopen(
    f"http://127.0.0.1:{port}/api/query?op=series", timeout=10))["series"]
published = re.compile(
    r"(lwp|hwt)\.\d+\.[a-z_]+(\.min|\.max)?"  # lwp.<tid>.<field>, hwt.<cpu>.<field>
    r"|gpu\.\d+\..+"                          # gpu.<n>.<label>
    r"|mem\.[a-z_]+(\.min|\.max)?")           # mem.<field>
metrics = sorted({s["metric"] for s in series})
foreign = [m for m in metrics if not published.fullmatch(m)]
if foreign:
    raise SystemExit(f"root lists metrics the run never published: {foreign}")
if not any(m.startswith(("lwp.", "hwt.")) for m in metrics):
    raise SystemExit(f"root lists no lwp. or hwt. metric: {metrics}")
print(f"smoke: all {len(metrics)} metric names at the root are ones the "
      f"run published")
PY
kill "$ROOT_PID" "$GROUP_PID" "$NODE_PID" 2>/dev/null || true
trap - EXIT
rm -rf "$FED_DIR"

echo "=== check.sh: all passes complete ==="
