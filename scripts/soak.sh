#!/usr/bin/env bash
# Nightly soak (the CI `soak` job; also runnable by hand): the failure
# modes that need iterations to surface, not one quick pass —
#
#   1. the chaos suite (random fault injection over the full client ->
#      daemon -> tsdb pipeline) repeated SOAK_ITERS times,
#   2. the two federation group-kill failover tests (an in-process tree
#      and a simulated cluster job) repeated SOAK_ITERS times,
#   3. a live 3-process node -> group -> root tree over loopback TCP,
#      formed and torn down SOAK_TREE_ITERS times, each run's records
#      required to surface at the root,
#   4. the query service's mixed read/write load test, its overload
#      phase shed-never-stall and zero-drop, repeated SOAK_ITERS times.
#
# The gtest loops reshuffle per repetition, so iterations explore
# different interleavings rather than replaying one.
#
# Usage: scripts/soak.sh [iters]   (default SOAK_ITERS=10)
set -euo pipefail

cd "$(dirname "$0")/.."

SOAK_ITERS="${1:-${SOAK_ITERS:-10}}"
SOAK_TREE_ITERS="${SOAK_TREE_ITERS:-3}"

echo "=== soak: build (${SOAK_ITERS} iterations per loop) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"

REPO="$PWD"

echo "=== soak 1/4: chaos suite x${SOAK_ITERS} ==="
./build/tests/test_chaos --gtest_repeat="$SOAK_ITERS" --gtest_shuffle \
  --gtest_brief=1

echo "=== soak 2/4: federation group-kill failover x${SOAK_ITERS} ==="
FAILOVER='FedTree.GroupCrashFailoverLosesNoAckedWindows'
FAILOVER+=':FedCluster.GroupCrashMidJobFailsOverThroughTheCatalog'
./build/tests/test_federation --gtest_repeat="$SOAK_ITERS" --gtest_shuffle \
  --gtest_brief=1 --gtest_filter="$FAILOVER"

echo "=== soak 3/4: live 3-process tree x${SOAK_TREE_ITERS} ==="
run_tree_smoke() {
  local FED_DIR GROUP_PID NODE_PID ROOT_PID ROOT_WIRE ROOT_HTTP CATALOG
  FED_DIR="$(mktemp -d)"
  GROUP_PID=""
  NODE_PID=""
  ./build/tools/zerosum-aggd --role root --port 0 --http-port 0 \
    > "$FED_DIR/root.log" 2>&1 &
  ROOT_PID=$!
  trap 'kill "$ROOT_PID" "$GROUP_PID" "$NODE_PID" 2>/dev/null || true' RETURN
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
    if any(int(hops) >= 2 and count > 0 for hops, count in by_hop.items()):
        print(f"soak tree: root sees {by_hop} "
              f"({h['fanin']['forward_windows']} windows forwarded)")
        break
    if time.time() > deadline:
        raise SystemExit(f"no hop-2 source reached the root: {h}")
    time.sleep(0.3)
PY
  # The root's query plane answers through the soak too.
  "$REPO/build/tools/zerosum-post" --agg-port "$ROOT_HTTP" \
    --http-query stats > /dev/null
  kill "$ROOT_PID" "$GROUP_PID" "$NODE_PID" 2>/dev/null || true
  wait "$ROOT_PID" "$GROUP_PID" "$NODE_PID" 2>/dev/null || true
  trap - RETURN
  rm -rf "$FED_DIR"
}
for i in $(seq 1 "$SOAK_TREE_ITERS"); do
  echo "--- tree iteration $i/$SOAK_TREE_ITERS"
  run_tree_smoke
done

echo "=== soak 4/4: query service under mixed load x${SOAK_ITERS} ==="
./build/tests/test_aggregator --gtest_repeat="$SOAK_ITERS" --gtest_shuffle \
  --gtest_brief=1 \
  --gtest_filter='QueryServiceTest.MixedLoadShedsExcessReadsWithoutStallingOrDropping'

echo "=== soak: all loops complete ==="
