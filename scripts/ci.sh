#!/usr/bin/env bash
# CI entry point (DESIGN.md §11). Stages, in order:
#
#   1. lint        scripts/lint.sh --all — format + full clang-tidy sweep
#                  (when clang tooling is installed, including the iam-*
#                  plugin checks) + the always-on repo-specific grep bans.
#   2. default     portable build, full ctest. Its kernel tests run every
#                  kernel arm (SSE, AVX2, AVX-512) the host CPU supports.
#   3. fma guard   the default build's kernels.cc.o must hold no fused
#                  multiply-add: the AVX-512 arm's target implies FMA, and
#                  only -ffp-contract=off keeps the compiler from fusing
#                  (which would change the bits every arm shares with the
#                  reference kernels, DESIGN.md §10).
#   4. ubsan       IAM_SANITIZE=undefined, quick gate (ctest -LE 'slow|net').
#   5. werror      clang-only: -Wthread-safety -Werror build (IAM_WERROR=ON),
#                  no test run — this is the lock-discipline gate; breaking
#                  an annotation fails the build itself.
#   6. tsan-obs    TSan quick gate over the concurrency-sensitive tests
#                  (obs_test, query_log_test, race_test, threadpool_test,
#                  plus the serve micro-batcher and hot-swap suites) —
#                  sharded metrics, trace buffers, the seqlock query-log
#                  ring and the serving lock dance must stay race-free.
#   7. obs smoke   model_cli demo --metrics=FILE: asserts the Prometheus
#                  export is non-empty and has no duplicate metric names.
#   8. serve smoke boots the estimator service (serve_cli serve --demo) on
#                  loopback with two batcher shards, runs client round trips,
#                  a pipelined burst with a hot-swap racing it, and a metrics
#                  scrape (global + per-shard series), pulls the query log
#                  over the kQueryLog frame (record count must equal the
#                  accepted count, filters must narrow it) and the --slow-ms
#                  stderr log, and asserts a clean drain shutdown.
#   8a. adapt smoke second server boot with --adapt: kAppendData rows, seq
#                  and inline kFeedback, then asserts the drift trigger
#                  fires exactly one background retrain-and-swap and the
#                  adapt counters reconcile with the traffic (DESIGN.md §18).
#   8b. bench json python3 (if present): scripts/check_bench_json.py
#                  schema-checks the committed BENCH_*.json files.
#   9. asan-net    ASan+UBSan over the `net`-labeled loopback serving tests —
#                  the untrusted-input surface (frame decode, envelope load)
#                  exercised over real sockets under memory checking.
#  10. fuzz-smoke  clang only: IAM_FUZZ=ON + ASan build of the libFuzzer
#                  harnesses (fuzz/), a bounded -runs= round per target
#                  seeded from the committed corpus, then the corpus-replay
#                  ctest entries. Findings are minimized into fuzz/corpus/
#                  and become permanent regressions (DESIGN.md §16).
#  11. sanitize    optional, IAM_CI_SANITIZE=thread|address: quick gate under
#                  that sanitizer on top of the above.
#
# Sanitizer configs run `ctest -LE 'slow|net'` (`slow` marks the multi-second
# training/VBGMM cases, `net` the loopback-socket serving tests) so a full CI
# round stays bounded; the default config always runs everything.
#
# clang is optional: stages 1 and 5 degrade to a skip on a gcc-only host.
# Set IAM_CI_REQUIRE_CLANG=1 (the clang CI lane does) to turn a missing
# clang/clang-tidy/clang-format into a hard failure.
#
# Usage: scripts/ci.sh [build-dir-prefix]
#   scripts/ci.sh                          # build-ci-* build trees
#   IAM_CI_SANITIZE=thread scripts/ci.sh   # adds a TSan quick-gate config
#   IAM_CI_REQUIRE_CLANG=1 scripts/ci.sh   # clang lane: lint + werror enforced
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 2)"
require_clang="${IAM_CI_REQUIRE_CLANG:-0}"

# run_config <dir> <ctest-args...> -- <cmake-args...>
run_config() {
  local dir="$1"
  shift
  local ctest_args=()
  while [[ "$1" != "--" ]]; do
    ctest_args+=("$1")
    shift
  done
  shift
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${jobs}"
  echo "=== ctest ${dir} ${ctest_args[*]} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}" "${ctest_args[@]}"
}

# --- Stage 1: lint. --------------------------------------------------------
# Needs a compile_commands.json for clang-tidy; the default config below
# writes one, so configure it first and lint against it.
echo "=== configure ${prefix}-default (for compile_commands.json) ==="
cmake -B "${prefix}-default" -S . >/dev/null
scripts/lint.sh --all "${prefix}-default"

# --- Stage 2: portable build, full suite. ----------------------------------
run_config "${prefix}-default" --

# --- Stage 3: no FMA contraction in the kernel arms. -----------------------
# A later flag change that lets the compiler contract a * b + c into an FMA
# inside the AVX-512 arm would move estimates silently; fail it here.
kernels_obj="${prefix}-default/src/nn/CMakeFiles/iam_nn.dir/kernels.cc.o"
if [[ ! -f "${kernels_obj}" ]]; then
  echo "ci: FATAL: ${kernels_obj} not found for the FMA guard" >&2
  exit 1
fi
fma_count="$(objdump -d "${kernels_obj}" | grep -cE 'vfn?m(add|sub)' || true)"
if [[ "${fma_count}" -ne 0 ]]; then
  echo "ci: FATAL: ${kernels_obj} holds ${fma_count} FMA instructions;" \
       "iam_nn must build with -ffp-contract=off (DESIGN.md §10)" >&2
  exit 1
fi
echo "fma guard OK (no FMA in kernels.cc.o)"

# --- Stage 4: UBSan quick gate. --------------------------------------------
# The "net" label (loopback-socket serving tests) joins "slow" in the quick
# exclusion; the default/native configs above run both.
run_config "${prefix}-ubsan" -LE 'slow|net' -- -DIAM_SANITIZE=undefined

# --- Stage 5: thread-safety -Werror build (clang only). --------------------
if command -v clang++ >/dev/null 2>&1; then
  echo "=== configure ${prefix}-werror (clang, -Wthread-safety -Werror) ==="
  cmake -B "${prefix}-werror" -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DIAM_WERROR=ON >/dev/null
  echo "=== build ${prefix}-werror ==="
  cmake --build "${prefix}-werror" -j "${jobs}"
elif [[ "${require_clang}" == "1" ]]; then
  echo "ci: FATAL: clang++ not found and IAM_CI_REQUIRE_CLANG=1" >&2
  exit 1
else
  echo "ci: clang++ not found; -Wthread-safety gate skipped" \
       "(IAM_CI_REQUIRE_CLANG=1 enforces)"
fi

# --- Stage 6: TSan gate on the observability + concurrency tests. ----------
# The sharded metric registry and per-thread trace buffers are written from
# every pool worker, and the serving layer's micro-batcher and hot-swap path
# are lock dances by construction; this gate proves them race-free under
# load. QueryLogTest covers the seqlock diagnostics ring — concurrent
# writers lapping a reader must stay TSan-clean with no torn records.
# (MicroBatcherTest/ShardedBatcherTest/ServeShardTest/ServeSwapTest
# are the serve concurrency suites — shard spill, the event loop's completion
# queue, and the swap-under-load tests must stay TSan-clean;
# ServePipelineTest exercises the loop's partial-read/partial-write paths.
# ServeAdaptTest/AdaptControllerTest cover the adaptation loop: concurrent
# feedback + load racing a retrain-and-swap, DESIGN.md §18. PooledSamplerTest
# runs the pooled sampler's megabatches with concurrent callers against the
# test-side per-query reference sampler.)
# IAM_SANITIZE=thread also arms the lock-rank checker (src/util/lock_rank.h),
# so every ranked acquisition in these suites is order-checked and the
# LockRank suites prove the checker itself catches inversions.
run_config "${prefix}-tsan-obs" -LE slow -R \
  '^(CounterTest|RegistryTest|HistogramTest|ExportTest|TraceTest|ObsDeterminismTest|QueryLogTest|RaceTest|ThreadPoolTest|MicroBatcherTest|ShardedBatcherTest|ServeShardTest|ServeSwapTest|ServePipelineTest|ServeAdaptTest|AdaptControllerTest|PooledSamplerTest|LockRankTest|LockRankDeathTest)\.' \
  -- -DIAM_SANITIZE=thread

# --- Stage 6b: exact-equality gate. ----------------------------------------
# The pooled cross-query sampler — EstimateBatch and EstimateAggregate — must
# stay bit-identical at a fixed budget to the test-side per-query reference
# sampler in tests/pooled_sampler_test.cc (DESIGN.md §14). The megabatch,
# aggregate, fallback-isolation, and adaptive-determinism suites run on the
# default (portable, exact-equality) build. The same suite rides the TSan
# gate above for race coverage of the shared pooled scratch. The
# degree-truncated ResMADE conditionals must match the dense reference
# network bit for bit, the kept-list kernel the reference kernel on every
# arm the CPU runs, and all arms each other at the ResMADE shapes
# (DESIGN.md §10). A small GMM-reduced model's estimates and Save() bytes
# must match their committed golden digests (DESIGN.md §5).
echo "=== exact-equality gate: pooled sampler, truncated conditionals, kernel arms, golden digests ==="
ctest --test-dir "${prefix}-default" --output-on-failure -j "${jobs}" \
  -R '^(PooledSamplerTest\.|Layouts/ResMadeOracleTest\.|KernelsTest\.KeptListKernelMatchesReferenceOnGatheredInputs$|KernelsTest\.AllArmsAgreeBitwiseAtResMadeShapes$|Isa/KernelArmTest\.|GoldenDigestTest\.)'

# --- Stage 7: metrics-export smoke test. -----------------------------------
# Runs the end-to-end demo with --metrics and asserts the Prometheus text
# parses: non-empty, and every metric family is declared exactly once.
echo "=== obs smoke: model_cli demo --metrics ==="
metrics_file="$(mktemp)"
trap 'rm -f "${metrics_file}"' EXIT
"${prefix}-default/examples/model_cli" demo "--metrics=${metrics_file}" \
  >/dev/null
if [[ ! -s "${metrics_file}" ]]; then
  echo "ci: FATAL: --metrics produced an empty Prometheus export" >&2
  exit 1
fi
dup_families="$(grep '^# TYPE ' "${metrics_file}" | awk '{print $3}' \
                  | sort | uniq -d)"
if [[ -n "${dup_families}" ]]; then
  echo "ci: FATAL: duplicate metric families in Prometheus export:" >&2
  echo "${dup_families}" >&2
  exit 1
fi
echo "obs smoke OK ($(grep -c '^# TYPE ' "${metrics_file}") metric families)"

# --- Stage 8: serve smoke test. --------------------------------------------
# Boots the estimator service on loopback with the demo model and TWO batcher
# shards, fires fixed-seed client round trips plus a metrics scrape through
# serve_cli's client commands, then races a pipelined burst against a
# hot-swap control frame (swap under load must lose nothing), re-scrapes the
# per-shard metric series, and asserts a clean drain shutdown (exit 0 after
# the shutdown frame) and that the Prometheus export parses.
echo "=== serve smoke: serve_cli demo server + client burst ==="
serve_log="$(mktemp)"
serve_err="$(mktemp)"
serve_metrics="$(mktemp)"
serve_model="$(mktemp)"
burst_log="$(mktemp)"
querylog_json="$(mktemp)"
trap 'rm -f "${metrics_file}" "${serve_log}" "${serve_err}" \
            "${serve_metrics}" "${serve_model}" "${burst_log}" \
            "${querylog_json}"' EXIT
# --slow-ms 0.001 makes effectively every request trip the slow-query stderr
# log, so the smoke test can assert the diagnostic line fires.
"${prefix}-default/examples/serve_cli" serve --demo --port 0 \
  --max-delay-us 500 --shards 2 --slow-ms 0.001 \
  --model-out "${serve_model}" \
  >"${serve_log}" 2>"${serve_err}" &
serve_pid=$!
serve_port=""
for _ in $(seq 1 600); do
  serve_port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
                  "${serve_log}")"
  [[ -n "${serve_port}" ]] && break
  if ! kill -0 "${serve_pid}" 2>/dev/null; then
    echo "ci: FATAL: serve_cli exited before listening" >&2
    cat "${serve_log}" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "${serve_port}" ]]; then
  echo "ci: FATAL: serve_cli never reported its port" >&2
  kill "${serve_pid}" 2>/dev/null || true
  exit 1
fi
for i in 30 35 40 45; do
  "${prefix}-default/examples/serve_cli" estimate "${serve_port}" \
    "latitude >= ${i} AND longitude <= -90" >/dev/null
done
"${prefix}-default/examples/serve_cli" metrics "${serve_port}" \
  >"${serve_metrics}"
if ! grep -q '^iam_serve_accepted_total 4$' "${serve_metrics}"; then
  echo "ci: FATAL: serve metrics missing/unexpected accepted counter:" >&2
  grep 'iam_serve' "${serve_metrics}" >&2 || true
  exit 1
fi
dup_serve_families="$(grep '^# TYPE ' "${serve_metrics}" | awk '{print $3}' \
                        | sort | uniq -d)"
if [[ -n "${dup_serve_families}" ]]; then
  echo "ci: FATAL: duplicate metric families in serve export:" >&2
  echo "${dup_serve_families}" >&2
  exit 1
fi
# Hot-swap under load: a pipelined 64-deep burst on one connection races a
# kSwap control frame. The burst must come back whole — 64 ok, 0 overloaded,
# 0 dropped — with every response in submission order (serve_cli burst
# verifies the pairing; a lost or reordered frame fails the receive loop).
"${prefix}-default/examples/serve_cli" burst "${serve_port}" \
  "latitude >= 30 AND longitude <= -90" 64 >"${burst_log}" &
burst_pid=$!
if ! "${prefix}-default/examples/serve_cli" swap "${serve_port}" \
       "${serve_model}" >/dev/null; then
  echo "ci: FATAL: hot-swap control frame failed" >&2
  kill "${burst_pid}" 2>/dev/null || true
  exit 1
fi
if ! wait "${burst_pid}"; then
  echo "ci: FATAL: pipelined burst failed during hot-swap" >&2
  cat "${burst_log}" >&2
  exit 1
fi
if ! grep -q '^burst done: 64 ok, 0 overloaded of 64 pipelined$' \
       "${burst_log}"; then
  echo "ci: FATAL: hot-swap under load lost or rejected requests:" >&2
  cat "${burst_log}" >&2
  exit 1
fi
# Per-shard series: both shards registered their labeled queue gauge, and the
# burst traffic landed on a shard's labeled accepted counter (global
# iam_serve_accepted_total stays the unlabeled sum — checked above).
"${prefix}-default/examples/serve_cli" metrics "${serve_port}" \
  >"${serve_metrics}"
for series in 'iam_serve_queue_depth{shard="0"}' \
              'iam_serve_queue_depth{shard="1"}' \
              'iam_serve_shard_accepted_total{shard="0"}' \
              'iam_serve_shard_accepted_total{shard="1"}'; do
  if ! grep -qF "${series}" "${serve_metrics}"; then
    echo "ci: FATAL: serve export missing per-shard series ${series}:" >&2
    grep 'iam_serve' "${serve_metrics}" >&2 || true
    exit 1
  fi
done
if ! grep -q '^iam_serve_model_swaps_total 1$' "${serve_metrics}"; then
  echo "ci: FATAL: hot-swap not reflected in iam_serve_model_swaps_total" >&2
  grep 'iam_serve_model' "${serve_metrics}" >&2 || true
  exit 1
fi
# Query-log wire pull (DESIGN.md §17): every accepted request (4 round trips
# + the 64-deep burst) left exactly one record in the ring, retrievable over
# the kQueryLog frame, and the filter grammar narrows the pull.
"${prefix}-default/examples/serve_cli" querylog "${serve_port}" \
  >"${querylog_json}"
querylog_records="$(grep -o '"seq":' "${querylog_json}" | wc -l)"
if [[ "${querylog_records}" -ne 68 ]]; then
  echo "ci: FATAL: kQueryLog returned ${querylog_records} records," \
       "expected 68 (= accepted requests)" >&2
  head -c 2000 "${querylog_json}" >&2 || true
  exit 1
fi
if ! grep -q '"appended":68' "${querylog_json}"; then
  echo "ci: FATAL: kQueryLog appended total disagrees with accepted count" >&2
  head -c 2000 "${querylog_json}" >&2 || true
  exit 1
fi
"${prefix}-default/examples/serve_cli" querylog "${serve_port}" "last=5" \
  >"${querylog_json}"
if [[ "$(grep -o '"seq":' "${querylog_json}" | wc -l)" -ne 5 ]]; then
  echo "ci: FATAL: kQueryLog last=5 filter did not return 5 records" >&2
  head -c 2000 "${querylog_json}" >&2 || true
  exit 1
fi
if ! grep -q 'iam_serve slow query: seq=' "${serve_err}"; then
  echo "ci: FATAL: --slow-ms produced no slow-query lines on stderr" >&2
  head -20 "${serve_err}" >&2 || true
  exit 1
fi
"${prefix}-default/examples/serve_cli" shutdown "${serve_port}" >/dev/null
if ! wait "${serve_pid}"; then
  echo "ci: FATAL: serve_cli did not drain cleanly" >&2
  cat "${serve_log}" >&2
  exit 1
fi
if ! grep -q '^shutdown complete$' "${serve_log}"; then
  echo "ci: FATAL: serve_cli exited without completing its drain" >&2
  cat "${serve_log}" >&2
  exit 1
fi
echo "serve smoke OK (port ${serve_port})"

# --- Stage 8a: adaptation smoke test (DESIGN.md §18). ----------------------
# A second server boot with the adaptation loop armed: appends shifted rows
# over kAppendData, sends one seq-form and a burst of biased inline feedback
# records, and asserts the closed loop end to end — the intake counters
# match the traffic exactly, the drift trigger fires exactly one
# retrain-and-swap (the biased feedback keeps the windowed p90 above the
# trigger; the back-off then holds further retrains), and the corrector
# generation gauge tracks the swapped-in model version.
echo "=== adapt smoke: serve_cli --adapt feedback/append/retrain ==="
adapt_log="$(mktemp)"
adapt_metrics="$(mktemp)"
adapt_csv="$(mktemp)"
trap 'rm -f "${metrics_file}" "${serve_log}" "${serve_err}" \
            "${serve_metrics}" "${serve_model}" "${burst_log}" \
            "${querylog_json}" "${adapt_log}" "${adapt_metrics}" \
            "${adapt_csv}"' EXIT
# 512 synthetic rows in the demo schema (latitude, longitude), spread over
# the demo value range by a small Lehmer LCG — awk stays in exact-double
# territory, so the CSV is deterministic.
awk 'BEGIN {
  s = 12345
  for (i = 0; i < 512; i++) {
    s = (s * 48271) % 2147483647; a = s / 2147483647
    s = (s * 48271) % 2147483647; b = s / 2147483647
    printf "%.6f,%.6f\n", 26.5 + 24 * a, -122.5 + 57 * b
  }
}' >"${adapt_csv}"
"${prefix}-default/examples/serve_cli" serve --demo --port 0 --shards 2 \
  --adapt --adapt-trigger 1.5 --adapt-window 16 --adapt-min-rows 256 \
  --adapt-min-feedback 8 --adapt-epochs 1 >"${adapt_log}" 2>/dev/null &
adapt_pid=$!
adapt_port=""
for _ in $(seq 1 600); do
  adapt_port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
                  "${adapt_log}")"
  [[ -n "${adapt_port}" ]] && break
  if ! kill -0 "${adapt_pid}" 2>/dev/null; then
    echo "ci: FATAL: serve_cli --adapt exited before listening" >&2
    cat "${adapt_log}" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "${adapt_port}" ]]; then
  echo "ci: FATAL: serve_cli --adapt never reported its port" >&2
  kill "${adapt_pid}" 2>/dev/null || true
  exit 1
fi
if ! "${prefix}-default/examples/serve_cli" append "${adapt_port}" \
       "${adapt_csv}" >/dev/null; then
  echo "ci: FATAL: kAppendData upload failed" >&2
  exit 1
fi
"${prefix}-default/examples/serve_cli" estimate "${adapt_port}" \
  "latitude >= 30 AND longitude <= -90" >/dev/null
# Seq-form feedback against the query-log record the estimate just left.
if ! "${prefix}-default/examples/serve_cli" feedback "${adapt_port}" \
       "seq=1 actual=0.9" >/dev/null; then
  echo "ci: FATAL: seq-form feedback rejected" >&2
  exit 1
fi
# Oscillating inline feedback: alternating extreme actuals on one predicate
# keep every feedback's q-error huge no matter how the corrector chases, so
# the windowed p90 stays far above the 1.5 trigger deterministically.
for i in $(seq 1 12); do
  if (( i % 2 )); then adapt_actual=0.9; else adapt_actual=0.001; fi
  "${prefix}-default/examples/serve_cli" feedback "${adapt_port}" \
    "actual=${adapt_actual} where latitude >= 45 AND longitude <= -90" \
    >/dev/null
done
# The retrain runs on the background adaptation thread; poll the metrics
# export until the swap lands.
adapt_retrained=""
for _ in $(seq 1 600); do
  "${prefix}-default/examples/serve_cli" metrics "${adapt_port}" \
    >"${adapt_metrics}"
  if grep -q '^iam_adapt_retrains_total 1$' "${adapt_metrics}"; then
    adapt_retrained=1
    break
  fi
  sleep 0.1
done
if [[ -z "${adapt_retrained}" ]]; then
  echo "ci: FATAL: drift trigger never fired a retrain" >&2
  grep 'iam_adapt' "${adapt_metrics}" >&2 || true
  exit 1
fi
for series in '^iam_adapt_feedback_total 13$' \
              '^iam_adapt_append_rows_total 512$' \
              '^iam_adapt_feedback_rejected_total 0$' \
              '^iam_adapt_feedback_dropped_total 0$' \
              '^iam_adapt_retrain_failed_total 0$' \
              '^iam_serve_model_swaps_total 1$' \
              '^iam_adapt_corrector_generation 2$'; do
  if ! grep -q "${series}" "${adapt_metrics}"; then
    echo "ci: FATAL: adapt metrics missing/unexpected series ${series}:" >&2
    grep 'iam_adapt\|iam_serve_model' "${adapt_metrics}" >&2 || true
    exit 1
  fi
done
"${prefix}-default/examples/serve_cli" shutdown "${adapt_port}" >/dev/null
if ! wait "${adapt_pid}"; then
  echo "ci: FATAL: serve_cli --adapt did not drain cleanly" >&2
  cat "${adapt_log}" >&2
  exit 1
fi
echo "adapt smoke OK (port ${adapt_port})"

# --- Stage 8b: committed bench JSON schema check. --------------------------
# The BENCH_*.json files at the repo root are commitments (overhead bounds,
# reconciliation flags); the checker fails CI when a section disappears or a
# committed bound regresses. python3 is optional on minimal hosts.
if command -v python3 >/dev/null 2>&1; then
  echo "=== bench json: scripts/check_bench_json.py ==="
  python3 scripts/check_bench_json.py
else
  echo "ci: python3 not found; bench JSON schema check skipped"
fi

# --- Stage 9: ASan over the loopback serving tests. ------------------------
# The `net` label marks the tests that push adversarial and well-formed
# frames through real sockets — the serving layer's untrusted-input surface.
# Running exactly that label under ASan+UBSan memory-checks the frame
# decoder, the envelope loader behind kSwap, and the connection buffers.
run_config "${prefix}-asan-net" -L net -- -DIAM_SANITIZE=address

# --- Stage 10: bounded fuzz smoke (clang only). ----------------------------
# Builds the libFuzzer harnesses under ASan+UBSan, runs a bounded round per
# target seeded from the committed corpus (new inputs land in a scratch dir;
# a crash fails CI and its input is committed under fuzz/corpus/ as a
# permanent replay regression), then replays the committed corpus in the
# same instrumented build.
if command -v clang++ >/dev/null 2>&1; then
  fuzz_dir="${prefix}-fuzz"
  echo "=== configure ${fuzz_dir} (clang, IAM_FUZZ=ON, ASan) ==="
  cmake -B "${fuzz_dir}" -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DIAM_FUZZ=ON -DIAM_SANITIZE=address >/dev/null
  echo "=== build ${fuzz_dir} ==="
  cmake --build "${fuzz_dir}" -j "${jobs}"
  fuzz_runs="${IAM_CI_FUZZ_RUNS:-20000}"
  for target in frame_decoder envelope query_parser; do
    echo "=== fuzz smoke: ${target} (-runs=${fuzz_runs}) ==="
    fuzz_scratch="$(mktemp -d)"
    if ! "${fuzz_dir}/fuzz/iam_fuzz_${target}" "-runs=${fuzz_runs}" \
           -print_final_stats=0 "${fuzz_scratch}" "fuzz/corpus/${target}"; then
      echo "ci: FATAL: fuzzer found a crash in ${target}; minimize the" \
           "input into fuzz/corpus/${target}/ and fix" >&2
      rm -rf "${fuzz_scratch}"
      exit 1
    fi
    rm -rf "${fuzz_scratch}"
  done
  ctest --test-dir "${fuzz_dir}" --output-on-failure -j "${jobs}" \
    -R '^FuzzReplay\.'
elif [[ "${require_clang}" == "1" ]]; then
  echo "ci: FATAL: clang++ not found and IAM_CI_REQUIRE_CLANG=1" >&2
  exit 1
else
  echo "ci: clang++ not found; fuzz-smoke stage skipped" \
       "(IAM_CI_REQUIRE_CLANG=1 enforces)"
fi

# --- Stage 11: optional sanitizer quick gate. ------------------------------
# IAM_CI_SANITIZE=thread or address; slow and net cases excluded to bound
# runtime.
if [[ -n "${IAM_CI_SANITIZE:-}" ]]; then
  run_config "${prefix}-${IAM_CI_SANITIZE}" -LE 'slow|net' -- \
    "-DIAM_SANITIZE=${IAM_CI_SANITIZE}"
fi

echo "CI OK"
