#!/usr/bin/env bash
# CI pipeline: build + tier-1 tests, sanitizers, lint, schedule fuzz,
# fault, observability and benchmark gates.
#
#   scripts/ci.sh          # plain RelWithDebInfo build + ctest
#   scripts/ci.sh asan     # Debug + -fsanitize=address,undefined + ctest
#   scripts/ci.sh sanitize # UBSan run of test_engine, test_cached_open, the
#                          # flat-table suites (test_file_server, test_chk,
#                          # test_name_cache), the transaction-rule
#                          # suites (test_ipc, test_ipc_property, test_fault,
#                          # test_crash_replies) and the flat-context server
#                          # suites (test_conformance_matrix,
#                          # test_servers_misc, test_pipe_server) and the
#                          # client binding paths (test_svc,
#                          # test_shard_fabric), plus a TSan build
#                          # (build-only: the sim is single-threaded, TSan
#                          # proves it still links)
#   scripts/ci.sh lint     # clang-tidy over src/ (skips if not installed;
#                          # skips unchanged files via a content-hash cache)
#   scripts/ci.sh slint    # V-lint static analysis (tools/vlint): tree must
#                          # be clean, every seeded fixture must fail
#   scripts/ci.sh fuzz     # 16-seed deterministic schedule-fuzz sweep, and
#                          # the 16-seed EventLoop-vs-reference-queue
#                          # differential (test_engine)
#   scripts/ci.sh scale    # E14: two smoke days byte-identical, and the full
#                          # day identical to the checked-in BENCH_scale.json
#   scripts/ci.sh bench-smoke  # run every bench with --json and validate
#                          # each report against the JsonReport schema
#   scripts/ci.sh perf     # engine-throughput gate: bench_engine --json,
#                          # fail on >25% events/wall-sec regression vs
#                          # the checked-in BENCH_engine.json
#   scripts/ci.sh fault    # V-fault: 16-seed chaos matrix, recovery bench
#                          # report identical to BENCH_fault_recovery.json
#   scripts/ci.sh obs      # V-trace example + Chrome JSON validation,
#                          # V-blackbox flight-dump example + Perfetto JSON
#                          # validation, dump determinism, <5% recorder
#                          # overhead on timer-churn, and a traced run of
#                          # bench_forwarding bit-identical to an untraced one
#   scripts/ci.sh vbench   # build bench/vbench apart and run its
#                          # vbench_smoke correctness + determinism gate
#   scripts/ci.sh all      # everything, in the order above
set -euo pipefail
cd "$(dirname "$0")/.."

run_preset() {
  local preset="$1"
  echo "==> configure (${preset})"
  cmake --preset "${preset}"
  echo "==> build (${preset})"
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "==> test (${preset})"
  ctest --preset "${preset}" -j "$(nproc)"
}

run_sanitize() {
  echo "==> sanitize (UBSan run + TSan build)"
  echo "==> sanitize: ubsan configure/build"
  # test_file_server, test_chk and test_name_cache cover the flat per-request
  # tables (dense i-node vector, lint ledger, name-cache slots);
  # test_ipc and test_ipc_property cover the kernel's transaction rule,
  # which runs on every domain's IPC path, and test_fault and
  # test_crash_replies cover it under crash-only and lossy plans
  # (DESIGN.md 4h).  test_conformance_matrix, test_servers_misc and
  # test_pipe_server drive every op through the FlatContextServer base
  # (DESIGN.md 4o).  test_svc and test_shard_fabric drive Rt's learn step,
  # its one-hop open_at and the router's '[prefix]' parse (DESIGN.md 4g).
  local suites=(
    test_engine test_cached_open test_file_server test_chk test_name_cache
    test_ipc test_ipc_property test_fault test_crash_replies
    test_conformance_matrix test_servers_misc test_pipe_server
    test_svc test_shard_fabric
  )
  cmake --preset ubsan
  cmake --build --preset ubsan -j "$(nproc)" --target "${suites[@]}"
  for t in "${suites[@]}"; do
    echo "==> sanitize: ubsan run ($t)"
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 "./build-ubsan/tests/$t"
  done
  echo "==> sanitize: tsan build-only (the sim is single-threaded)"
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)" --target \
    test_engine test_cached_open
  echo "sanitize OK"
}

run_lint() {
  echo "==> lint (clang-tidy)"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping lint stage"
    return 0
  fi
  cmake --preset default  # exports compile_commands.json (see the preset)
  # Content-hash cache: a TU is re-linted only when its preprocessor
  # dependency closure changes -- the .cpp itself plus every project header
  # it includes (headers are where HeaderFilterRegex findings come from, so
  # a header-only edit must re-lint its users), the .clang-tidy config, or
  # the clang-tidy version.
  local cache_dir=".cache/clang-tidy"
  mkdir -p "${cache_dir}"
  local config_hash
  config_hash=$( (clang-tidy --version; cat .clang-tidy) | sha256sum |
                 cut -d' ' -f1)
  local todo=() f h stamp
  while IFS= read -r -d '' f; do
    # Dep scan mirrors the default preset's flags; if it fails the list
    # degrades to just the TU, which only over-lints, never under-lints.
    h=$( { g++ -std=c++20 -Isrc -MM -MT dep "$f" 2>/dev/null || true
           echo "$f"; } |
         sed 's/^dep://' | tr -d '\\' | tr ' ' '\n' | sed '/^$/d' |
         sort -u | xargs -r sha256sum | sha256sum | cut -d' ' -f1)
    stamp="${cache_dir}/${h}-${config_hash:0:16}"
    [[ -f "${stamp}" ]] || todo+=("${f}|${stamp}")
  done < <(find src -name '*.cpp' -print0)
  # Lint the cache misses in parallel; each success touches its stamp so a
  # failing file is retried on the next run.
  if ((${#todo[@]})); then
    printf '%s\0' "${todo[@]}" |
      xargs -0 -P "$(nproc)" -n 1 bash -c '
        f="${1%%|*}"; stamp="${1#*|}"
        clang-tidy -p build --quiet "$f" && touch "$stamp"
      ' _ || { echo "FAIL: clang-tidy findings" >&2; exit 1; }
  fi
  echo "lint OK (${#todo[@]} linted, $(find src -name '*.cpp' | wc -l) total)"
}

run_slint() {
  echo "==> slint (V-lint static analysis)"
  cmake --preset default  # exports compile_commands.json for --compdb
  echo "==> slint: tree must be clean"
  python3 tools/vlint/vlint.py --root . --compdb build/compile_commands.json
  echo "==> slint: every seeded fixture must fail with its rule"
  python3 tools/vlint/vlint.py --check-fixtures
  echo "slint OK"
}

run_fuzz() {
  echo "==> fuzz (16-seed schedule sweep)"
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target test_schedule_fuzz test_engine
  # Failures print a one-command repro line (V_FUZZ_SEED=0x... ...).
  V_FUZZ_SEEDS=16 ./build/tests/test_schedule_fuzz
  V_FUZZ_SEEDS=16 ./build/tests/test_engine \
    --gtest_filter='EngineDifferential.*'
  echo "fuzz OK"
}

run_bench_smoke() {
  echo "==> bench-smoke (every bench --json + schema validation)"
  cmake --preset default
  # bench_micro is the google-benchmark host-timing harness: it has its own
  # CLI and no JsonReport, so the smoke list is every vnames_bench target.
  local benches=(
    bench_ipc_transaction bench_bulk_transfer bench_stream_read
    bench_open_matrix bench_prefix_server bench_forwarding
    bench_context_directory bench_naming_models bench_group_send
    bench_name_cache bench_cached_open bench_server_team
    bench_fault_recovery
  )
  for b in "${benches[@]}"; do
    cmake --build --preset default -j "$(nproc)" --target "$b"
  done
  local reports=()
  for b in "${benches[@]}"; do
    echo "==> bench-smoke: $b"
    "./build/bench/$b" --json "/tmp/smoke_$b.json" >/dev/null
    reports+=("/tmp/smoke_$b.json")
  done
  python3 scripts/check_bench_json.py "${reports[@]}"
  # The two checked-in reports must regenerate identically (host timing
  # fields are the one legitimately machine-dependent part).
  diff BENCH_server_team.json /tmp/smoke_bench_server_team.json
  strip_host_timing BENCH_cached_open.json >/tmp/smoke_ref.json
  strip_host_timing /tmp/smoke_bench_cached_open.json >/tmp/smoke_new.json
  diff /tmp/smoke_ref.json /tmp/smoke_new.json
  echo "bench-smoke OK"
}

run_scale() {
  echo "==> scale (E14 production day: smoke determinism + schema + safety,"
  echo "    full-day report identity)"
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target bench_scale
  # The shrunken day must pass its own acceptance gate (zero wrong replies,
  # churn handoff + handback) ...
  ./build/bench/bench_scale --smoke --json /tmp/scale_smoke1.json >/dev/null
  # ... twice, byte-identically: every number is simulated time, so two
  # runs of the same seed must produce the same JSON to the last digit.
  ./build/bench/bench_scale --smoke --json /tmp/scale_smoke2.json >/dev/null
  diff /tmp/scale_smoke1.json /tmp/scale_smoke2.json
  python3 scripts/check_bench_json.py /tmp/scale_smoke1.json
  # The full day must regenerate the checked-in report byte for byte.  This
  # pins the churn cell, which runs under a crash-only FaultPlan, so any
  # change to the kernel's transaction rule that moves a simulated result
  # shows.
  ./build/bench/bench_scale --json /tmp/scale_full.json >/dev/null
  diff BENCH_scale.json /tmp/scale_full.json
  echo "scale OK"
}

strip_host_timing() {
  sed -E 's/, "host_repeats": [0-9]+, "host_median_ms": [0-9.]+//' "$1"
}

run_perf() {
  echo "==> perf (engine throughput gate)"
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target bench_engine
  ./build/bench/bench_engine --json /tmp/bench_engine_ci.json >/dev/null
  # Schema first, then the regression gate: each workload's
  # events_per_wall_second must stay within 25% of the checked-in
  # baseline.  Deterministic fields (events, txns, sim_ms) regenerate
  # identically; wall-clock throughput is the one machine-dependent part,
  # hence a ratio gate instead of a diff.
  python3 scripts/check_bench_json.py --baseline BENCH_engine.json \
    /tmp/bench_engine_ci.json
  echo "perf OK"
}

run_fault() {
  echo "==> fault (chaos matrix + recovery bench)"
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target \
    test_fault test_fault_matrix test_crash_replies bench_fault_recovery
  # The loss-rate x crash-schedule x 16-seed chaos sweep, with the race
  # detector and protocol lint watching (every build compiles them in).
  # Failures print a one-command repro line (V_FUZZ_SEED=0x... ...).
  V_FUZZ_SEEDS=16 ./build/tests/test_fault_matrix
  ./build/tests/test_fault
  ./build/tests/test_crash_replies
  echo "==> fault recovery bench"
  ./build/bench/bench_fault_recovery --json /tmp/bench_fault.json >/dev/null
  python3 scripts/check_bench_json.py /tmp/bench_fault.json
  # The checked-in report must regenerate identically (host timing fields
  # are the one legitimately machine-dependent part).
  strip_host_timing BENCH_fault_recovery.json >/tmp/fault_ref.json
  strip_host_timing /tmp/bench_fault.json >/tmp/fault_new.json
  diff /tmp/fault_ref.json /tmp/fault_new.json
  echo "fault OK"
}

run_vbench() {
  echo "==> vbench (benchmark correctness + determinism smoke)"
  # bench/vbench is a CMake package of its own, so the tier-1 ctest run
  # never reaches its gate: build it into its own directory and run it.
  cmake -S bench/vbench -B build-vbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-vbench -j "$(nproc)" --target vbench
  ctest --test-dir build-vbench -R vbench_smoke --output-on-failure
  echo "vbench OK"
}

run_obs() {
  echo "==> obs (V-trace + V-blackbox: trace example, flight recorder,"
  echo "    sampling + overhead gates)"
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" --target \
    trace_resolution flight_dump bench_engine bench_forwarding test_obs \
    test_fault_matrix

  echo "==> obs: V-trace example, Chrome JSON validation"
  ./build/examples/trace_resolution /tmp/trace_ci.json
  python3 scripts/check_trace_json.py /tmp/trace_ci.json

  echo "==> obs: automatic dump on retry exhaustion, Perfetto-loadable"
  ./build/examples/flight_dump /tmp/flight_ci.json
  python3 scripts/check_trace_json.py --flight /tmp/flight_ci.json

  echo "==> obs: sampling propagation + dump determinism tests"
  ./build/tests/test_obs
  ./build/tests/test_fault_matrix \
    --gtest_filter='FaultMatrix.FailingCellDumpIsByteIdentical'

  echo "==> obs: recorder overhead gate (<5% events/s on timer-churn)"
  # The always-on claim, measured where it hurts most: timer-churn is
  # nothing but event dispatches, and --flight re-runs it with the
  # recorder's fire hook attached to every other 5-sim-ms slice of ONE
  # timer-churn run, alternating which half of each adjacent pair is
  # hooked; the gate reads the MEDIAN hooked/plain ratio of wall ns per
  # event over the pairs, which bounds hook + record() cost itself, not a
  # busy neighbour (two slices a millisecond apart see the same host; a
  # min over separate runs read +-8% on an unchanged tree).  The
  # checked-in BENCH_engine.json still gates absolute speed at 25% in the
  # perf stage.
  ./build/bench/bench_engine --flight --repeat 5 \
    --json /tmp/bench_engine_flight.json >/dev/null
  python3 scripts/check_bench_json.py --max-regression 0.05 \
    --overhead timer-churn:timer-churn-flight /tmp/bench_engine_flight.json

  echo "==> obs: tracing leaves simulated results unchanged"
  # Recording costs host time only, never simulated time: a fully traced
  # forwarding run must report the same numbers as an untraced one.
  ./build/bench/bench_forwarding --json /tmp/obs_untraced.json >/dev/null
  ./build/bench/bench_forwarding --json /tmp/obs_traced.json \
    --trace /tmp/obs_forwarding_trace.json >/dev/null
  strip_host_timing /tmp/obs_untraced.json >/tmp/obs_untraced.stripped
  strip_host_timing /tmp/obs_traced.json >/tmp/obs_traced.stripped
  diff /tmp/obs_untraced.stripped /tmp/obs_traced.stripped
  echo "obs OK"
}

case "${1:-default}" in
  default) run_preset default ;;
  asan)    run_preset asan ;;
  sanitize) run_sanitize ;;
  lint)    run_lint ;;
  slint)   run_slint ;;
  fuzz)    run_fuzz ;;
  bench-smoke) run_bench_smoke ;;
  scale)   run_scale ;;
  perf)    run_perf ;;
  fault)   run_fault ;;
  obs)     run_obs ;;
  vbench)  run_vbench ;;
  all)     run_preset default; run_preset asan; run_sanitize; run_lint
           run_slint; run_fuzz; run_bench_smoke
           run_scale; run_perf; run_fault; run_obs; run_vbench ;;
  *) echo "usage: $0 [default|asan|sanitize|lint|slint|fuzz|bench-smoke|scale|perf|fault|obs|vbench|all]" >&2
     exit 2 ;;
esac
echo "CI OK"
