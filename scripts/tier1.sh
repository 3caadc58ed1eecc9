#!/usr/bin/env bash
# Tier-1 verification: the full build + ctest suite, then the socket-heavy
# net and integration suites again under ASan+UBSan (LOCO_SANITIZE=ON), then
# the concurrency-heavy suites under ThreadSanitizer (LOCO_SANITIZE=tsan).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== tier-1: repeat gate (dispatch, dedup window, lease table, frame reader, fsck + GC suites, in-process and TCP cluster suites, until-fail:20) =="
# The worker / loop-run dispatch suites, the dedup window (a duplicate
# racing its running original, with and without waiting), the lease table,
# the notify listener, the wire / frame-reader suites, the invariant-engine
# suites (fsck, the in-process GcStep drivers, the GC manager's pacing), the
# in-process transport and its concurrent clients, and the suites that drive
# real services over TCP (the client's mixed DMS+FMS fan-outs, the notify
# plane, the mount's connect path, the resilient channel) must pass 20 times
# in a row: a test that leans on thread timing, on reply order or on state
# left by an earlier step fails here instead of flaking later.
ctest --test-dir build --output-on-failure \
  -R '^(TcpTest|TcpWorkerPoolTest|TcpFanOutTest|TcpFaultTest|OverloadTest|DisconnectTest|DedupWindowTest|LeaseTableTest|NotifyListenerTest|WireTest|WireFuzzTest|PinnedReaderTest|FsckTest|DmsGcStepTest|FmsGcStepTest|ObjGcStepTest|GcManagerTest|InProcTest|MultiClientTest|TcpClusterTest|NotifyClusterTest|ConnectTest|ResilientChannelTest)\.' \
  --repeat until-fail:20

echo "== tier-1: net_test shuffled and repeated in one process =="
# ctest runs each case in its own process, so state one case leaves in the
# process (a metrics counter, a thread, a socket) never reaches the next.
# Here every net_test case shares one process, in a new random order ten
# times over: a case that reads another's leftovers fails here.
./build/tests/net/net_test --gtest_shuffle --gtest_repeat=10 --gtest_brief=1

echo "== tier-1: live-stack benchmark smoke (perfbench/run.py --smoke) =="
# Builds perfbench/ (its own Release CMake package into .bench_build/) and
# runs every workload briefly in both the untraced and the traced mode,
# checking the namespace, file contents and emitted metric set.  perfbench's
# decorators subclass net::Channel, net::RpcHandler and kv::Kv, so an
# interface change that breaks them fails here rather than in the benchmark.
python3 perfbench/run.py --smoke

echo "== tier-1: overload smoke (fig_overload --short, gated) =="
# Drives an in-process FMS through peak -> deadline-burst -> 2x sustained
# overload and enforces the docs/OVERLOAD.md gates: >= 70% of peak goodput
# retained, offered load >= 2x peak, expired requests dropped unexecuted,
# admission queue bounded at max_queue.
cmake --build build -j --target fig_overload >/dev/null
./build/bench/fig_overload --short --out build/BENCH_overload_smoke.json
# Same driver against a live daemon: spawn a real FMS and round-trip the
# three phases over TCP (the environment-sensitive gates are skipped in
# --connect mode; the run must still complete cleanly).
smoke_dir=$(mktemp -d)
./build/daemons/locofs_fmsd --listen 127.0.0.1:47117 --sid 1 --workers 4 \
  --store-dir "$smoke_dir" >"$smoke_dir/fms.log" 2>&1 &
smoke_pid=$!
trap 'kill $smoke_pid 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
# The channel makes one connect attempt per call, so wait (up to 10 s) for
# the daemon's "listening on" banner before the warm-up call.
for _ in $(seq 100); do
  grep -q 'listening on' "$smoke_dir/fms.log" && break
  sleep 0.1
done
grep -q 'listening on' "$smoke_dir/fms.log"
./build/bench/fig_overload --short --connect 127.0.0.1:47117 \
  --out build/BENCH_overload_live.json
kill $smoke_pid 2>/dev/null || true
wait $smoke_pid 2>/dev/null || true
trap - EXIT
rm -rf "$smoke_dir"

echo "== tier-1: loopback stack driver (fig_loopback, gated) =="
# The real DMS + 2 FMS + OSD stack (WAL stores, dedup windows, one mount)
# over loopback TCP, swept over server workers {1,2,4} x submission mode.
# The full default run takes a few seconds and exits non-zero unless, at
# every worker count, pipelined callers reach >= 1.5x and batched frames
# >= 2x the per-op aggregate throughput.
cmake --build build -j --target fig_loopback >/dev/null
./build/bench/fig_loopback --out build/BENCH_loopback_smoke.json

echo "== tier-1: 2-shard live e2e leg (create/rename/fsck-clean) =="
# Two real locofs_dmsd shard processes plus FMS/OSD: the cross-shard rename
# chaos matrix (docs/SHARDING.md) — client-driven 2PC end to end, SIGKILL at
# each crash point, recovery by loco_fsck --repair and by the shards' own
# intent-resolution GC, with a clean read-only fsck pass after each.
./build/tests/integration/shard_rename_test

echo "== tier-1: shard scale-out smoke (fig_shard --short) =="
# Sim-based 1/2/4-shard sweep of the mkdir/create/rename mix.  The --short
# run is a correctness smoke (zero failed ops across shard counts); the
# full `fig_shard` run (saturating client count) is what demonstrates the
# >= 1.6x 2-shard scale-out recorded in BENCH_shard.json.
cmake --build build -j --target fig_shard >/dev/null
./build/bench/fig_shard --short --out build/BENCH_shard_smoke.json

echo "== tier-1: ASan+UBSan pass (net + kv + fs + sim + core + benchlib + integration + chaos + shard + gc soak + notify) =="
cmake -B build-asan -S . -DLOCO_SANITIZE=ON >/dev/null
cmake --build build-asan -j --target net_test kvstore_test fs_test \
  sim_test core_test core_housekeeping_test locofs_property_test \
  benchlib_test integration_test chaos_test shard_rename_test gc_soak_test \
  notify_e2e_test locofs_dmsd locofs_fmsd locofs_osd loco_fsck \
  loco_shell >/dev/null
# net_test carries the wire/batch-envelope fuzz corpus and core_test the
# batch handler suites, so the epoll server, the batch codecs and their
# FMS handlers all run under ASan; kvstore_test covers the WAL replay and
# compaction paths and fs_test the client-visible namespace semantics;
# chaos_test includes the batched crash-restart storm, and gc_soak_test
# kills a client + FMS while every daemon runs its GC thread and then
# repairs with `loco_fsck --live`.
./build-asan/tests/net/net_test
./build-asan/tests/kvstore/kvstore_test
./build-asan/tests/fs/fs_test
./build-asan/tests/sim/sim_test
./build-asan/tests/core/core_test
./build-asan/tests/core/core_housekeeping_test
./build-asan/tests/core/locofs_property_test
./build-asan/tests/benchlib/benchlib_test
./build-asan/tests/integration/integration_test
./build-asan/tests/integration/chaos_test
./build-asan/tests/integration/shard_rename_test
./build-asan/tests/integration/gc_soak_test
./build-asan/tests/integration/notify_e2e_test

echo "== tier-1: TSan pass (worker pool, striped KV, sim, concurrent handlers, GC, notify, resilient fan-out, in-process clients) =="
cmake -B build-tsan -S . -DLOCO_SANITIZE=tsan >/dev/null
cmake --build build-tsan -j --target net_test kvstore_test fs_test \
  sim_test core_test striped_kv_test \
  core_concurrency_test core_housekeeping_test notify_e2e_test \
  integration_test >/dev/null
# net_test exercises the server event loop, the callers reading their own
# connections and the worker pool under TSan; core_test adds the batch
# handler suites over the striped stores, and core_housekeeping_test runs
# the GcManager scan thread against serving handlers (token bucket,
# snapshot pins).
./build-tsan/tests/net/net_test
./build-tsan/tests/kvstore/kvstore_test
./build-tsan/tests/fs/fs_test
./build-tsan/tests/sim/sim_test
./build-tsan/tests/core/core_test
./build-tsan/tests/kvstore/striped_kv_test
./build-tsan/tests/core/core_concurrency_test
./build-tsan/tests/core/core_housekeeping_test
./build-tsan/tests/integration/notify_e2e_test
# A reading caller completes other callers' legs along with its own, and
# ResilientChannel retries legs of a fan-out on the calling thread; the
# TcpCluster suite drives the client's own fan-outs (listings, rename
# probes, batch frames) through both over real sockets.  The in-process
# transport takes no lock of its own, so MultiClientTest runs concurrent
# clients' handlers on one server at once.
./build-tsan/tests/integration/integration_test \
  --gtest_filter='ResilientChannel*:TcpClusterTest.*:MultiClientTest.*'

echo "tier1: OK"
