#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite and the
# hlm_lint static checker, smoke-run one figure bench with --metrics_out
# and --events_out and check both dumps parse (metrics JSON with the
# expected LDA instrumentation; wide-event JSONL line by line), render
# them through hlm_statusz, prove the flight-recorder crash dump fires
# via `hlm_statusz selfcheck-crash`, run the whole-program analyzer
# (scripts/analyze.sh: semantic passes, SARIF validation, deps.dot vs
# layers.txt diff), then run the sanitizer stages the toolchain
# supports (TSan over the concurrency tests, UBSan and ASan over the
# full suite).
#
# Usage: scripts/tier1.sh [build_dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

CLEANUP_PATHS=()
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
  fi
  if [ "${#CLEANUP_PATHS[@]}" -gt 0 ]; then
    rm -rf "${CLEANUP_PATHS[@]}"
  fi
}
trap cleanup EXIT

# sanitizer_usable <flag> — probe whether the toolchain can build AND
# run a binary under -fsanitize=<flag>. Every sanitizer stage gates on
# this uniformly: supported toolchains must pass, others skip loudly.
sanitizer_usable() {
  local flag="$1"
  local probe_dir
  probe_dir="$(mktemp -d "/tmp/hlm_${flag}_probe.XXXXXX")"
  CLEANUP_PATHS+=("$probe_dir")
  cat > "$probe_dir/probe.cc" <<'EOF'
#include <thread>
int main() { std::thread t([] {}); t.join(); return 0; }
EOF
  c++ "-fsanitize=$flag" -pthread "$probe_dir/probe.cc" \
      -o "$probe_dir/probe" 2>/dev/null &&
    "$probe_dir/probe" 2>/dev/null
}

echo "== tier1: configure =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" >/dev/null

echo "== tier1: build =="
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== tier1: lint =="
# Static checks run unconditionally: no toolchain dependency beyond the
# repo's own compiler. lint.sh also self-tests that the linter still
# fails on a known-bad fixture.
"$REPO_ROOT/scripts/lint.sh" "$BUILD_DIR"

echo "== tier1: whole-program analysis =="
# The two-stage analyzer: semantic passes (layering, unchecked-status,
# hot-path-alloc, lock-discipline), SARIF export validation, and the
# deps.dot vs tools/layers.txt diff.
"$REPO_ROOT/scripts/analyze.sh" "$BUILD_DIR"

echo "== tier1: ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== tier1: metrics smoke bench =="
METRICS_JSON="$(mktemp /tmp/hlm_tier1_metrics.XXXXXX.json)"
EVENTS_JSONL="$(mktemp /tmp/hlm_tier1_events.XXXXXX.jsonl)"
CLEANUP_PATHS+=("$METRICS_JSON" "$EVENTS_JSONL")
"$BUILD_DIR/bench/bench_fig2_lda_perplexity" \
  --companies=120 --metrics_out="$METRICS_JSON" \
  --events_out="$EVENTS_JSONL"

echo "== tier1: validate metrics JSON =="
if command -v python3 >/dev/null 2>&1; then
  python3 - "$METRICS_JSON" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    snapshot = json.load(f)
for section in ("counters", "gauges", "histograms"):
    if section not in snapshot:
        sys.exit(f"missing section: {section}")
hist = snapshot["histograms"].get("hlm.lda.gibbs_sweep_seconds")
if not hist or hist["count"] <= 0:
    sys.exit("missing per-sweep Gibbs timing histogram")
if len(hist["bucket_counts"]) != len(hist["bounds"]) + 1:
    sys.exit("bucket_counts must be bounds+1 (overflow last)")
if "hlm.lda.log_likelihood" not in snapshot["gauges"]:
    sys.exit("missing final log-likelihood gauge")
if snapshot["counters"].get("hlm.lda.sweeps_total", 0) <= 0:
    sys.exit("missing hlm.lda.sweeps_total counter")
print(f"ok: {len(snapshot['counters'])} counters, "
      f"{len(snapshot['gauges'])} gauges, "
      f"{len(snapshot['histograms'])} histograms")
PY
else
  # Fallback without python3: the obs unit tests exercise FromJson on
  # the same schema; here just check the key names are present.
  for needle in '"hlm.lda.gibbs_sweep_seconds"' '"hlm.lda.log_likelihood"'; do
    grep -q "$needle" "$METRICS_JSON" ||
      { echo "missing $needle in $METRICS_JSON" >&2; exit 1; }
  done
  echo "ok (grep-level check; python3 not found)"
fi

echo "== tier1: validate wide-event JSONL =="
if command -v python3 >/dev/null 2>&1; then
  python3 - "$EVENTS_JSONL" <<'PY'
import json, sys
names = []
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        line = line.strip()
        if not line:
            sys.exit(f"line {lineno}: blank line in JSONL")
        try:
            event = json.loads(line)
        except ValueError as err:
            sys.exit(f"line {lineno}: not valid JSON: {err}")
        for key in ("ts_us", "level", "name", "tid", "span_id", "attrs"):
            if key not in event:
                sys.exit(f"line {lineno}: missing key {key!r}")
        names.append(event["name"])
if not names:
    sys.exit("events file is empty — the bench emitted no wide events")
if "lda.train.done" not in names:
    sys.exit("missing the lda.train.done training-summary event")
print(f"ok: {len(names)} events, all lines parse with the full schema")
PY
else
  grep -q '"name": "lda.train.done"' "$EVENTS_JSONL" ||
    { echo "missing lda.train.done event in $EVENTS_JSONL" >&2; exit 1; }
  echo "ok (grep-level check; python3 not found)"
fi

echo "== tier1: statusz render from dump files =="
STATUSZ_TEXT="$("$BUILD_DIR/tools/hlm_statusz" render \
  --metrics "$METRICS_JSON" --events "$EVENTS_JSONL" --tail 8)"
for needle in "==== hlm statusz ====" "-- counters --" \
    "-- latency percentiles --" "-- flight recorder tail" \
    "lda.train.done"; do
  case "$STATUSZ_TEXT" in
    *"$needle"*) ;;
    *) echo "hlm_statusz render output missing: $needle" >&2; exit 1 ;;
  esac
done
if command -v python3 >/dev/null 2>&1; then
  # Every flight_tail item is an events-JSONL line (one schema).
  "$BUILD_DIR/tools/hlm_statusz" render --metrics "$METRICS_JSON" \
    --events "$EVENTS_JSONL" --format json --tail 8 |
    python3 -c '
import json, sys
tail = json.load(sys.stdin)["flight_tail"]
if not tail:
    sys.exit("render --format json has an empty flight_tail")
keys = ("ts_us", "level", "name", "tid", "span_id", "attrs")
for item in tail:
    missing = [key for key in keys if key not in item]
    if missing:
        sys.exit(f"flight_tail item missing {missing}: {item}")
'
fi
echo "ok: statusz text + json render from metrics/events dumps"

echo "== tier1: crash dump selfcheck =="
CRASH_DIR="$(mktemp -d /tmp/hlm_tier1_crash.XXXXXX)"
CLEANUP_PATHS+=("$CRASH_DIR")
# selfcheck-crash MUST die (nonzero): a zero exit means HLM_CHECK no
# longer aborts and the crash path is broken.
if "$BUILD_DIR/tools/hlm_statusz" selfcheck-crash \
    --dir "$CRASH_DIR" >/dev/null 2>&1; then
  echo "hlm_statusz selfcheck-crash exited zero; crash path broken" >&2
  exit 1
fi
CRASH_DUMP="$CRASH_DIR/hlm-crash-selfcheck.json"
[ -f "$CRASH_DUMP" ] ||
  { echo "missing crash dump $CRASH_DUMP" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$CRASH_DUMP" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    dump = json.load(f)
if dump.get("run_id") != "selfcheck":
    sys.exit(f"unexpected run_id: {dump.get('run_id')!r}")
entries = dump.get("entries", [])
if not entries:
    sys.exit("crash dump has no flight-recorder entries")
for entry in entries:
    for key in ("ts_us", "level", "name", "tid", "span_id", "attrs"):
        if key not in entry:
            sys.exit(f"crash dump entry missing key {key!r}: {entry}")
names = {entry.get("name") for entry in entries}
if "statusz.selfcheck.arm" not in names:
    sys.exit("crash dump missing the pre-crash event trail")
print(f"ok: crash dump parses with {len(entries)} entries")
PY
else
  grep -q '"run_id": "selfcheck"' "$CRASH_DUMP" ||
    { echo "crash dump missing run_id" >&2; exit 1; }
  echo "ok (grep-level check; python3 not found)"
fi

echo "== tier1: kernel parity under both dispatch paths =="
# The SIMD determinism contract (DESIGN.md §12): the full kernel test
# suite must pass with dispatch forced off and with auto selection, and
# the kernels bench baseline pins the output checksums — identical bits
# on the portable and AVX2 paths.
HLM_SIMD=off "$BUILD_DIR/tests/kernel_test"
HLM_SIMD=auto "$BUILD_DIR/tests/kernel_test"
echo "ok: kernel tests pass under HLM_SIMD=off and HLM_SIMD=auto"

echo "== tier1: bench regression check (kernels suite) =="
"$BUILD_DIR/tools/hlm_bench" --suite kernels --out none --check \
  --baseline "$REPO_ROOT/bench/baselines/kernels.json" \
  --walltime_tolerance 3.0 --walltime_slack 0.25

echo "== tier1: bench regression check (smoke suite) =="
# Deterministic metric values must match the committed baseline exactly;
# walltimes get a loose budget (3x + 0.25s) because the committed
# baseline was recorded on a different machine.
"$BUILD_DIR/tools/hlm_bench" --suite smoke --out none --check \
  --baseline "$REPO_ROOT/bench/baselines/smoke.json" \
  --walltime_tolerance 3.0 --walltime_slack 0.25

echo "== tier1: bench regression self-test (injected 2x slowdown) =="
# Prove the checker actually fires: record a fresh same-machine baseline,
# then rerun with every phase stretched 2x. Against a same-machine
# baseline a tight budget (1.2x + 2ms) is reliable, and the injected run
# must exceed it.
SELFTEST_BASELINE="$(mktemp /tmp/hlm_tier1_bench_baseline.XXXXXX.json)"
CLEANUP_PATHS+=("$SELFTEST_BASELINE")
"$BUILD_DIR/tools/hlm_bench" --suite smoke --out none \
  --update_baseline --baseline "$SELFTEST_BASELINE" >/dev/null
if "$BUILD_DIR/tools/hlm_bench" --suite smoke --out none --check \
    --baseline "$SELFTEST_BASELINE" --inject_slowdown 2 \
    --walltime_tolerance 1.2 --walltime_slack 0.002 >/dev/null 2>&1; then
  echo "hlm_bench --check missed an injected 2x slowdown" >&2
  exit 1
fi
echo "ok: clean check passes, injected slowdown flagged"

echo "== tier1: snapshot save + verify roundtrip =="
SNAP_DIR="$(mktemp -d /tmp/hlm_tier1_snap.XXXXXX)"
CLEANUP_PATHS+=("$SNAP_DIR")
"$BUILD_DIR/tools/hlm_snapshot" save --dir "$SNAP_DIR" --companies 120
"$BUILD_DIR/tools/hlm_snapshot" verify --manifest "$SNAP_DIR/manifest.txt"
"$BUILD_DIR/tools/hlm_snapshot" load --manifest "$SNAP_DIR/manifest.txt"
# Corruption must be caught: appending one byte to the snapshot the
# server reads for /v1/similar breaks the container.
printf 'x' >> "$SNAP_DIR/lda_repr.snap"
if "$BUILD_DIR/tools/hlm_snapshot" verify \
    --manifest "$SNAP_DIR/manifest.txt" >/dev/null 2>&1; then
  echo "hlm_snapshot verify missed a corrupted snapshot" >&2
  exit 1
fi
echo "ok: save/verify/load + corruption detection"

echo "== tier1: serve stage (hlm_serve + hlm_loadgen + hot reload) =="
# End-to-end serving path: snapshot a model set, boot hlm_serve on an
# ephemeral port, hammer it closed-loop while republishing the manifest
# three times (each touch is one hot-swapped generation), and require
# zero failed requests, monotone generations, at least 3 distinct
# generations observed, and >= 5k QPS sustained through the swaps; then
# churn 3,000 one-request connections and require flat threads/VmSize.
SERVE_DIR="$(mktemp -d /tmp/hlm_tier1_serve.XXXXXX)"
CLEANUP_PATHS+=("$SERVE_DIR")
"$BUILD_DIR/tools/hlm_snapshot" save --dir "$SERVE_DIR" \
  --companies 120 >/dev/null
"$BUILD_DIR/tools/hlm_serve" --manifest "$SERVE_DIR/manifest.txt" \
  --port 0 --port_file "$SERVE_DIR/port" --poll_interval_ms 25 \
  > "$SERVE_DIR/server.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SERVE_DIR/port" ] && break
  sleep 0.1
done
if [ ! -s "$SERVE_DIR/port" ]; then
  echo "hlm_serve never published its port; log:" >&2
  cat "$SERVE_DIR/server.log" >&2
  exit 1
fi
SERVE_PORT="$(cat "$SERVE_DIR/port")"
( for _ in 1 2 3; do
    sleep 0.6
    touch "$SERVE_DIR/manifest.txt"
  done ) &
PUBLISHER_PID=$!
"$BUILD_DIR/tools/hlm_loadgen" --port "$SERVE_PORT" --mode closed \
  --connections 4 --duration_s 3 --min_qps 5000 \
  --check_generations --expect_min_generations 3 \
  --json_out "$SERVE_DIR/loadgen.json"
wait "$PUBLISHER_PID"
# The machine-readable run report must agree with the pass/fail above.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SERVE_DIR/loadgen.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
if report.get("schema_version") != 1:
    sys.exit(f"unexpected schema_version: {report.get('schema_version')!r}")
if report.get("exit_code") != 0:
    sys.exit(f"report records a failing run: {report}")
if report.get("requests", 0) <= 0 or report.get("failures", -1) != 0:
    sys.exit("report disagrees with the passing loadgen run")
if report.get("achieved_qps", 0) < 5000:
    sys.exit(f"report QPS below the gate: {report.get('achieved_qps')}")
if len(report.get("generations_seen", [])) < 3:
    sys.exit("report saw fewer than 3 generations")
lat = report.get("latency_seconds", {})
if lat.get("count", 0) != report.get("requests"):
    sys.exit("latency histogram count != request count")
print(f"ok: loadgen report, {report['requests']} requests at "
      f"{report['achieved_qps']:.0f} QPS")
PY
else
  grep -q '"schema_version": 1' "$SERVE_DIR/loadgen.json" ||
    { echo "loadgen --json_out report malformed" >&2; exit 1; }
  echo "ok (grep-level check; python3 not found)"
fi
# Live /statusz through the server (loadgen once-mode keeps this
# curl-free) must render the standard banner, the per-endpoint
# counters, and the windowed section the watcher's collector ticks
# filled during the 3s run.
STATUSZ_BODY="$("$BUILD_DIR/tools/hlm_loadgen" --port "$SERVE_PORT" \
  --mode once --path /statusz)"
for needle in "==== hlm statusz ====" "hlm.serve.server.reloads_total" \
    "hlm.serve.http.recommend.requests_total" \
    "-- windowed (last "; do
  case "$STATUSZ_BODY" in
    *"$needle"*) ;;
    *) echo "live /statusz missing: $needle" >&2; exit 1 ;;
  esac
done
# Scrape /metricsz and push it through the exposition validator: the
# live daemon's Prometheus surface must parse, with per-route families
# under their sanitized names.
"$BUILD_DIR/tools/hlm_loadgen" --port "$SERVE_PORT" \
  --mode once --path /metricsz > "$SERVE_DIR/metricsz.txt"
"$BUILD_DIR/tools/hlm_statusz" promcheck --file "$SERVE_DIR/metricsz.txt"
for needle in "hlm_serve_http_recommend_request_seconds_bucket" \
    "hlm_serve_http_recommend_requests_total" \
    "hlm_serve_server_reloads_total" "le=\"+Inf\""; do
  grep -q "$needle" "$SERVE_DIR/metricsz.txt" ||
    { echo "live /metricsz missing: $needle" >&2; exit 1; }
done
# hlm_statusz top one-frame smoke against the live daemon.
"$BUILD_DIR/tools/hlm_statusz" top --port "$SERVE_PORT" --once \
  > "$SERVE_DIR/top.txt"
for needle in "hlm_top" "endpoint" "recommend"; do
  grep -q "$needle" "$SERVE_DIR/top.txt" ||
    { echo "hlm_statusz top --once output missing: $needle" >&2; exit 1; }
done
# Connection churn must leave the daemon flat: 3,000 requests, each on a
# fresh connection, are served by reused pooled workers (at most 64),
# so the thread count and the address space stay bounded. One thread
# per connection would map an 8 MB stack per request (about 24 GB here).
serve_status_field() {
  awk -v field="$1:" '$1 == field { print $2 }' "/proc/$SERVE_PID/status"
}
THREADS_BEFORE="$(serve_status_field Threads)"
VM_KB_BEFORE="$(serve_status_field VmSize)"
"$BUILD_DIR/tools/hlm_loadgen" --port "$SERVE_PORT" --mode closed \
  --connections 1 --requests_per_connection 3000 --no_keepalive
THREADS_AFTER="$(serve_status_field Threads)"
VM_KB_AFTER="$(serve_status_field VmSize)"
if [ "$THREADS_AFTER" -gt $((THREADS_BEFORE + 64)) ]; then
  echo "connection churn grew hlm_serve from $THREADS_BEFORE to" \
    "$THREADS_AFTER threads" >&2
  exit 1
fi
if [ $((VM_KB_AFTER - VM_KB_BEFORE)) -ge $((256 * 1024)) ]; then
  echo "connection churn grew hlm_serve VmSize from $VM_KB_BEFORE kB to" \
    "$VM_KB_AFTER kB" >&2
  exit 1
fi
echo "ok: churn of 3000 connections: threads $THREADS_BEFORE ->" \
  "$THREADS_AFTER, VmSize $VM_KB_BEFORE -> $VM_KB_AFTER kB"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
echo "ok: hot reloads under load, loadgen report, metricsz validates," \
  "windowed statusz, hlm_statusz top renders, churn stays flat"

echo "== tier1: bench regression check (serve suite) =="
"$BUILD_DIR/tools/hlm_bench" --suite serve --out none --check \
  --baseline "$REPO_ROOT/bench/baselines/serve.json" \
  --walltime_tolerance 3.0 --walltime_slack 0.25

echo "== tier1: thread-sanitizer stage =="
if sanitizer_usable thread; then
  echo "== tier1: tsan build (parallel_test + obs_test + server_test) =="
  TSAN_BUILD_DIR="$BUILD_DIR-tsan"
  cmake -B "$TSAN_BUILD_DIR" -S "$REPO_ROOT" -DHLM_SANITIZE=thread >/dev/null
  cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)" \
    --target parallel_test obs_test server_test
  echo "== tier1: tsan run =="
  "$TSAN_BUILD_DIR/tests/parallel_test"
  "$TSAN_BUILD_DIR/tests/obs_test"
  # server_test under TSan certifies the snapshot-swap protocol (the
  # hot-reload race test) and the connection pool's handoff, idle
  # timeout and Stop() (DESIGN.md "Serving").
  "$TSAN_BUILD_DIR/tests/server_test"
else
  echo "toolchain cannot build/run -fsanitize=thread; skipping tsan stage"
fi

echo "== tier1: undefined-behavior-sanitizer stage =="
if sanitizer_usable undefined; then
  # Debug build type so HLM_DCHECK paths (bounds checks, per-sweep
  # distribution checks) execute under UBSan too.
  echo "== tier1: ubsan build (full suite, Debug) =="
  UBSAN_BUILD_DIR="$BUILD_DIR-ubsan"
  cmake -B "$UBSAN_BUILD_DIR" -S "$REPO_ROOT" \
    -DHLM_SANITIZE=undefined -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build "$UBSAN_BUILD_DIR" -j "$(nproc)"
  echo "== tier1: ubsan ctest =="
  ctest --test-dir "$UBSAN_BUILD_DIR" --output-on-failure -j "$(nproc)"
else
  echo "toolchain cannot build/run -fsanitize=undefined; skipping ubsan stage"
fi

echo "== tier1: address-sanitizer stage =="
if sanitizer_usable address; then
  # Heap misuse (buffer overflow, use-after-free, leaks at exit) over
  # the full suite; Debug so HLM_DCHECK bounds paths execute too.
  echo "== tier1: asan build (full suite, Debug) =="
  ASAN_BUILD_DIR="$BUILD_DIR-asan"
  cmake -B "$ASAN_BUILD_DIR" -S "$REPO_ROOT" \
    -DHLM_SANITIZE=address -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)"
  echo "== tier1: asan ctest =="
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -j "$(nproc)"
else
  echo "toolchain cannot build/run -fsanitize=address; skipping asan stage"
fi

echo "== tier1: PASS =="
