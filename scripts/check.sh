#!/usr/bin/env bash
# Tier-1 verification plus a Release bench smoke run.
#
#   scripts/check.sh            # full: configure, build, ctest, Release
#                               # validator pass-through, bench smoke
#   scripts/check.sh --no-bench # tier-1 only
#   scripts/check.sh --tsan     # rebuild with -DAPC_SANITIZE=thread and rerun
#                               # the concurrency tests under ThreadSanitizer
#   scripts/check.sh --asan     # rebuild with -DAPC_SANITIZE=address and rerun
#                               # the subscribe + runtime suites under
#                               # AddressSanitizer
#   scripts/check.sh --ubsan    # rebuild with -DAPC_SANITIZE=undefined
#                               # (no-recover) and run the FULL suite under
#                               # UndefinedBehaviorSanitizer
#   scripts/check.sh --obs      # the observability gate: build Release trees
#                               # with APC_OBS on and off, verify tier-1
#                               # passes with the obs layer compiled out, run
#                               # the causal suites (flight recorder, chrome
#                               # trace, attribution) in the on tree, build
#                               # the -DAPC_CACHE_INSTRUMENT=ON mode and run
#                               # its moving-counter tests, validate a real
#                               # apcache-obs-v1 export from live_dashboard,
#                               # measure the obs overhead on the seqlock
#                               # 8-shard/8-thread row, and assemble
#                               # BENCH_obs.json (fails if the armed-flight-
#                               # recorder qps drops below 95% of obs-off)
#   scripts/check.sh --alloc    # RelWithDebInfo build running
#                               # alloc_free_read_test: counting global
#                               # operator new proves PointRead /
#                               # ExecuteQuery / query generation allocate
#                               # nothing in steady state, with inlining on
#                               # so the claim is about the production code
#   scripts/check.sh --scenarios # scenario harness gate: run the trace
#                               # replay + scenario suites, a
#                               # bench_scenarios smoke (its exit gate is
#                               # zero mid-run precision violations on
#                               # every row; every row's total_cost must
#                               # equal the committed
#                               # BENCH_scenarios.json), then rerun the
#                               # concurrent scenario stress variants
#                               # (thundering herd, hotspot migration)
#                               # under ThreadSanitizer
#   scripts/check.sh --perfbench # repository-benchmark smoke: every
#                               # perfbench workload for 2 s untraced, plus
#                               # one traced refresh_churn run; fails when
#                               # run.py exits nonzero (a build failure, a
#                               # wrong answer, or offered != applied
#                               # updates)
#   scripts/check.sh --stress N # Release build running the concurrency
#                               # suites N times each (ctest --repeat
#                               # until-fail:N, in parallel) beside three
#                               # busy-loop neighbour processes, so a test
#                               # that leans on wall-clock progress fails
#                               # here; tooling only, no CI job
#   scripts/check.sh --analyze  # clang thread-safety analysis: build the
#                               # whole tree with clang and
#                               # -Werror=thread-safety(-beta) over the APC_*
#                               # annotations (requires clang installed)
#   scripts/check.sh --tidy     # clang-tidy over src/ with the repo
#                               # .clang-tidy (requires clang-tidy installed)
#
# Every mode ends with one `check.sh[<mode>]: PASS` line; any failure
# prints `check.sh[<mode>]: FAIL` and exits nonzero at that mode (set -e).
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"
MODE="${MODE#--}"
trap 'st=$?; if [[ $st -ne 0 ]]; then echo "check.sh[$MODE]: FAIL" >&2; fi' EXIT
pass() { echo "check.sh[$MODE]: PASS - $1"; trap - EXIT; exit 0; }

# A deadlocked notification test (a consumer waiting on a hub nobody closes)
# must fail fast instead of hanging the whole run.
CTEST_TIMEOUT=120

# The suites with real thread interleavings; everything else is
# single-threaded by construction. Shared by the tsan and asan modes.
# lock_order_test rides along: its death tests fork, which both sanitizers
# support, and the validator's thread_local stacks deserve instrumented
# coverage.
CONCURRENCY_SUITES='^(runtime_test|tiered_engine_test|update_bus_test|workload_driver_test|notification_hub_test|subscription_test|obs_test|lock_order_test|scenario_test)$'

# Locates a clang-family tool by its plain then versioned names (CI images
# often ship clang-NN only). Prints the tool or fails with guidance.
find_tool() {
  local base="$1" v
  if command -v "$base" >/dev/null 2>&1; then echo "$base"; return 0; fi
  for v in 21 20 19 18 17 16 15 14; do
    if command -v "$base-$v" >/dev/null 2>&1; then echo "$base-$v"; return 0; fi
  done
  echo "check.sh[$MODE]: $base not found - install clang (the gcc default" \
       "toolchain cannot run this mode; annotations are inert under gcc)" >&2
  return 1
}

if [[ "${1:-}" == "--tsan" ]]; then
  cmake -B build-tsan -S . -DAPC_SANITIZE=thread -DAPCACHE_BUILD_BENCHES=OFF \
        -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -R "$CONCURRENCY_SUITES"
  pass "concurrency tests clean under ThreadSanitizer"
fi

if [[ "${1:-}" == "--asan" ]]; then
  # The same interleaving-heavy suites, instrumented for heap misuse: the
  # subscription layer hands raw pointers across threads (sink callbacks,
  # notifier, hub records), so lifetime bugs surface here first.
  cmake -B build-asan -S . -DAPC_SANITIZE=address -DAPCACHE_BUILD_BENCHES=OFF \
        -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -R "$CONCURRENCY_SUITES"
  pass "subscribe + runtime suites clean under AddressSanitizer"
fi

if [[ "${1:-}" == "--ubsan" ]]; then
  # The FULL suite, not just the concurrency slice: UB (overflow, bad
  # shifts, misaligned access) hides in the single-threaded math paths too.
  # -fno-sanitize-recover (set by CMake for APC_SANITIZE=undefined) plus
  # halt_on_error turns any finding into a test failure.
  cmake -B build-ubsan -S . -DAPC_SANITIZE=undefined \
        -DAPCACHE_BUILD_BENCHES=OFF -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-ubsan -j
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-ubsan --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -j "$(nproc)"
  pass "full suite clean under UndefinedBehaviorSanitizer"
fi

if [[ "${1:-}" == "--alloc" ]]; then
  # The read-path allocation contract as its own CI gate. RelWithDebInfo:
  # optimized like production (so the zero-alloc claim covers the inlined
  # hot path), assertions retained. Deliberately NOT a sanitizer tree —
  # sanitizer runtimes replace the allocator and would shadow the test's
  # counting operator new.
  cmake -B build-alloc -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DAPCACHE_BUILD_BENCHES=OFF -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-alloc -j
  ctest --test-dir build-alloc --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -R '^alloc_free_read_test$'
  pass "read hot path allocation-free in steady state (optimized build)"
fi

if [[ "${1:-}" == "--scenarios" ]]; then
  # The scenario-harness gate in three stages: (1) the deterministic
  # suites — trace round-trip replay, generator/runner checks, lockstep
  # fuzz, determinism; (2) a bench_scenarios smoke whose own exit code
  # enforces zero mid-run precision violations with active checkers on
  # every scenario x policy row, and whose costs must reproduce the
  # committed trajectory exactly; (3) the two genuinely concurrent scenario
  # stress variants (subscriber thundering herd, hotspot migration with
  # racing edge readers) rebuilt and rerun under ThreadSanitizer.
  cmake -B build -S .
  cmake --build build -j
  ctest --test-dir build --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" \
        -R '^(trace_io_test|trace_replay_test|scenario_test|scenario_fuzz_test|scenario_determinism_test)$'
  ./build/bench_scenarios 240 1 build/BENCH_scenarios.json
  # Determinism gate: every scenario is a fixed schedule, so each row's
  # total_cost must equal the committed BENCH_scenarios.json (generated
  # with the same `240 1` arguments). A protocol change that moves any
  # refresh or eviction decision fails here instead of drifting silently.
  python3 - BENCH_scenarios.json build/BENCH_scenarios.json <<'PY'
import json, sys
def costs(path):
    return {(r["scenario"], r["policy"]): r["total_cost"]
            for r in json.load(open(path))["runs"]}
want, got = costs(sys.argv[1]), costs(sys.argv[2])
bad = [(k, want.get(k), got.get(k)) for k in sorted(set(want) | set(got))
       if want.get(k) != got.get(k)]
for (scenario, policy), w, g in bad:
    print(f"check.sh: total_cost drift {scenario}/{policy}: "
          f"committed {w}, now {g}", file=sys.stderr)
sys.exit(1 if bad else 0)
PY

  cmake -B build-tsan -S . -DAPC_SANITIZE=thread -DAPCACHE_BUILD_BENCHES=OFF \
        -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -R '^scenario_test$'
  pass "scenario suites, bench gate (0 violations, committed costs), and TSan stress clean"
fi

if [[ "${1:-}" == "--perfbench" ]]; then
  # The repository benchmark (BENCHMARK.json, perfbench/) as a correctness
  # smoke, not a measurement: run.py builds its own Release tree, checks
  # every answer against its constraint and the exact values, and exits
  # nonzero on any failure, which set -e turns into a FAIL here.
  for workload in read_hot refresh_churn tiered_push; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
            --trace 0
  done
  python3 perfbench/run.py --workload refresh_churn --seed 1 --seconds 2 \
          --trace 1
  pass "perfbench smoke: every workload answered correctly, all offered updates applied"
fi

if [[ "${1:-}" == "--stress" ]]; then
  REPEAT="${2:-}"
  if ! [[ "$REPEAT" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/check.sh --stress N   (N >= 1 repetitions)" >&2
    exit 2
  fi
  cmake -B build-stress -S . -DCMAKE_BUILD_TYPE=Release \
        -DAPCACHE_BUILD_BENCHES=OFF -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-stress -j
  # Three spinning neighbours keep the cores oversubscribed, the load
  # under which a test that waits on wall-clock luck rather than on
  # completion loses its race. They die with this script, pass or fail.
  neighbours=()
  for _ in 1 2 3; do
    ( while :; do :; done ) &
    neighbours+=("$!")
  done
  trap 'st=$?; kill "${neighbours[@]}" 2>/dev/null || true
        if [[ $st -ne 0 ]]; then echo "check.sh[$MODE]: FAIL" >&2; fi' EXIT
  ctest --test-dir build-stress --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -j "$(nproc)" \
        --repeat until-fail:"$REPEAT" -R "$CONCURRENCY_SUITES"
  kill "${neighbours[@]}" 2>/dev/null || true
  pass "concurrency suites passed $REPEAT times each beside three busy loops"
fi

if [[ "${1:-}" == "--analyze" ]]; then
  # Clang's -Wthread-safety over the APC_* annotations, as errors, for the
  # whole tree (library + tests + benches + examples): every GUARDED_BY /
  # REQUIRES contract in src/ is checked at compile time. Build only — the
  # binaries are byte-for-byte gcc-independent checks, tier-1 already ran
  # them.
  CXX_TOOL=$(find_tool clang++)
  cmake -B build-analyze -S . -DCMAKE_CXX_COMPILER="$CXX_TOOL" \
        -DAPCACHE_THREAD_SAFETY=ON
  cmake --build build-analyze -j
  pass "clang thread-safety analysis clean (-Werror=thread-safety)"
fi

if [[ "${1:-}" == "--tidy" ]]; then
  # clang-tidy with the repo .clang-tidy (bugprone/concurrency/performance)
  # over every first-party translation unit, using the compile commands of
  # a clang-configured tree so the annotation attributes parse.
  TIDY_TOOL=$(find_tool clang-tidy)
  CXX_TOOL=$(find_tool clang++)
  cmake -B build-tidy -S . -DCMAKE_CXX_COMPILER="$CXX_TOOL"
  # Tidy exactly the library TUs the build compiles (from the compile
  # database, so flags and the APC_* attribute macros parse as clang sees
  # them); headers are pulled in via HeaderFilterRegex.
  mapfile -t tus < <(grep -o '"file": *"[^"]*"' build-tidy/compile_commands.json \
                     | sed 's/.*"file": *"//; s/"$//' | grep '/src/' | sort -u)
  "$TIDY_TOOL" -p build-tidy --warnings-as-errors='*' --quiet "${tus[@]}"
  pass "clang-tidy clean over src/"
fi

if [[ "${1:-}" == "--obs" ]]; then
  # Smoke-sized by default; override for a committed-quality measurement:
  #   OBS_QPT=20000 OBS_SOURCES=256 scripts/check.sh --obs
  OBS_QPT="${OBS_QPT:-2000}"
  OBS_SOURCES="${OBS_SOURCES:-128}"

  # Both trees are Release so the comparison isolates the obs layer itself,
  # not optimizer settings.
  cmake -B build-obs-on -S . -DCMAKE_BUILD_TYPE=Release -DAPC_OBS=ON
  cmake --build build-obs-on -j
  cmake -B build-obs-off -S . -DCMAKE_BUILD_TYPE=Release -DAPC_OBS=OFF
  cmake --build build-obs-off -j

  # The whole suite must hold with the layer compiled OUT — in particular
  # the lockstep parity tests, which assert the engines' protocol answers
  # and tallies bit-for-bit with no instruments present, and the causal
  # suites, whose APC_OBS=0 branches assert the stubs really are inert
  # (empty dumps, zero attribution, no-op scopes).
  ctest --test-dir build-obs-off --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -j "$(nproc)"

  # The causal layer's own suites in the compiled-IN tree: forced checker
  # failure -> ordered flight dump with a complete span tree, chrome-trace
  # golden documents, attribution/CostTracker bit-for-bit reconciliation,
  # and the metric-registry contracts.
  ctest --test-dir build-obs-on --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" \
        -R '^(obs_test|chrome_trace_test|flight_recorder_test|attribution_test|cache_instrument_test|notification_hub_test)$'

  # The cache-instrument flag's two-mode contract: the trees above compile
  # the default OFF mode (accessors constant 0 — cache_instrument_test just
  # asserted that); this tree turns the counters ON and the same test now
  # asserts they move. static_assert(cache_instrumented() == flag) pins the
  # build wiring itself in both.
  cmake -B build-cachei -S . -DCMAKE_BUILD_TYPE=Release \
        -DAPC_CACHE_INSTRUMENT=ON \
        -DAPCACHE_BUILD_BENCHES=OFF -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-cachei -j
  ctest --test-dir build-cachei --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -R '^(cache_instrument_test|cache_test|protocol_table_test)$'

  # Schema-check a REAL export: live_dashboard attaches an AttributionTable
  # and writes the apcache-obs-v1 document, attribution section included.
  ./build-obs-on/examples/live_dashboard build-obs-on/obs_export.json \
      > /dev/null
  for key in '"schema": "apcache-obs-v1"' '"counters"' '"gauges"' \
             '"histograms"' '"attribution"' '"sources"' '"totals"' \
             '"query_reader_refreshes"' '"width_history"'; do
    grep -qF "$key" build-obs-on/obs_export.json || {
      echo "check.sh: FAIL - export missing $key" >&2; exit 1; }
  done
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
        build-obs-on/obs_export.json
  fi

  ./build-obs-on/bench_obs_overhead "$OBS_QPT" "$OBS_SOURCES" \
      build-obs-on/BENCH_obs_row.json
  ./build-obs-off/bench_obs_overhead "$OBS_QPT" "$OBS_SOURCES" \
      build-obs-off/BENCH_obs_row.json

  # Each BenchReport run row is one line; lift them verbatim into the
  # combined trajectory. The obs-on file carries three rows —
  # "steady_flight_recorder" (metrics live, flight recorder armed at
  # kFlight: the recommended always-on config, which the 5% bound gates),
  # "steady" (metrics live, recorder off), and "steady_traced" (full
  # per-event kFull tracing, informational) — the obs-off baseline
  # contributes its steady row.
  mapfile -t on_rows < <(grep '^    {' build-obs-on/BENCH_obs_row.json \
                         | sed 's/,$//')
  # Under APC_OBS=0 the three scenarios are literally one configuration
  # (Arm/Enable compile to no-ops), so the off binary yields three
  # independent median-of-7 measurements of the same baseline. Gate
  # against their median row: a single row's luck swings ±5% on a noisy
  # shared host, which is the size of the bound itself.
  off_row=$(grep '^    {' build-obs-off/BENCH_obs_row.json | sed 's/,$//' \
            | while IFS= read -r r; do
                printf '%s\t%s\n' \
                    "$(sed -n 's/.*"qps": \([0-9.eE+-]*\).*/\1/p' <<<"$r")" \
                    "$r"
              done | sort -g | awk -F'\t' 'NR==2 {print $2}')
  on_qps=$(sed -n 's/.*"qps": \([0-9.eE+-]*\).*/\1/p' <<<"${on_rows[0]}")
  off_qps=$(sed -n 's/.*"qps": \([0-9.eE+-]*\).*/\1/p' <<<"$off_row")
  overhead_pct=$(awk -v on="$on_qps" -v off="$off_qps" \
      'BEGIN { printf "%.2f", (off > 0 ? 100.0 * (off - on) / off : 0.0) }')
  {
    printf '{\n'
    printf '  "bench": "obs_overhead",\n'
    printf '  "schema": "apcache-bench-v1",\n'
    printf '  "meta": {"queries_per_thread": %s, "num_sources": %s, ' \
        "$OBS_QPT" "$OBS_SOURCES"
    printf '"row": "seqlock 8 shards x 8 threads, point_read_fraction 0.95", '
    printf '"acceptance": "obs-on steady_flight_recorder qps >= 0.95 x obs-off baseline (median of the off binary 3 identical-config rows)", '
    printf '"overhead_pct": %s},\n' "$overhead_pct"
    printf '  "runs": [\n'
    printf '%s,\n' "${on_rows[0]}"
    printf '%s,\n' "${on_rows[1]}"
    printf '%s,\n' "${on_rows[2]}"
    printf '%s\n' "$off_row"
    printf '  ]\n}\n'
  } > BENCH_obs.json
  echo "check.sh: obs-on(armed) ${on_qps} q/s vs obs-off ${off_qps} q/s" \
       "(overhead ${overhead_pct}%) -> BENCH_obs.json"
  if ! awk -v on="$on_qps" -v off="$off_qps" \
      'BEGIN { exit on >= 0.95 * off ? 0 : 1 }'; then
    echo "check.sh: FAIL - armed flight recorder exceeds 5% overhead on" \
         "the seqlock hot row"
    exit 1
  fi
  pass "causal suites, cache-instrument modes, export schema, and armed-recorder overhead bound all clean"
fi

# --- tier-1 verify -------------------------------------------------------
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure --no-tests=error \
      --timeout "$CTEST_TIMEOUT" -j "$(nproc)"

if [[ "${1:-}" == "--no-bench" ]]; then
  pass "tier-1 OK (bench smoke skipped)"
fi

# --- Release: validator compiled out + bench smoke -----------------------
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j --target bench_runtime_throughput \
      --target bench_subscription_throughput --target lock_order_test
# APC_LOCK_ORDER=AUTO turns the validator OFF in Release; the test's
# release branch proves inverted acquisitions pass through untouched.
ctest --test-dir build-release --output-on-failure --no-tests=error \
      --timeout "$CTEST_TIMEOUT" -R '^lock_order_test$'
./build-release/bench_runtime_throughput 500 128 build-release/BENCH_runtime.json
./build-release/bench_subscription_throughput 300 64 build-release/BENCH_subscriptions.json

pass "tier-1, Release validator pass-through, and bench smoke OK"
