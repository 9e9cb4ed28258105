#!/usr/bin/env bash
# Tier-1 verification plus the correctness-tooling lanes. Exits non-zero
# on the first failure. Usable locally and as the CI entry point.
#
#   scripts/check.sh                 # Release build in ./build + project lint
#   BUILD_DIR=ci-build scripts/check.sh
#   SANITIZE=1 scripts/check.sh      # + ASan/UBSan build over
#                                    #   unit|property|io + parallel +
#                                    #   alloc (zero-allocation) slices
#   TSAN=1 scripts/check.sh          # + ThreadSanitizer build over the
#                                    #   parallel-labeled suites at two
#                                    #   schedule widths (tsan.supp applies)
#   FUZZ=1 scripts/check.sh          # + fuzz harness build + fixed-iteration
#                                    #   smoke (ctest -L fuzz)
#   REQUIRE_TOOLS=1 ...              # hard-fail when a lane's toolchain is
#                                    #   missing instead of skip-with-warning
#                                    #   (CI posture; local boxes may lack
#                                    #   clang-tidy or a TSan runtime)
#   TIER1=0 TSAN=1 scripts/check.sh  # lane-only run: skip the Release
#                                    #   build/ctest (CI gives each lane its
#                                    #   own job; the release job owns tier-1)
#
# The clang-tidy lane lives in scripts/tidy.sh (same REQUIRE_TOOLS
# convention); CI runs it as its own job.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

# Missing-tool policy: hard-fail under REQUIRE_TOOLS=1 (CI), otherwise
# skip the lane loudly so a local run on a lean box stays useful.
missing_tool() {
  local lane="$1" detail="$2"
  if [[ "${REQUIRE_TOOLS:-0}" == "1" ]]; then
    echo "check.sh: FATAL: ${lane}: ${detail} (REQUIRE_TOOLS=1)" >&2
    exit 1
  fi
  echo "check.sh: WARNING: skipping ${lane}: ${detail}" >&2
}

# True iff the compiler can link the given -fsanitize= runtime.
compiler_supports_sanitizer() {
  local flag="$1"
  local scratch
  scratch="$(mktemp -d)"
  local ok=0
  echo 'int main(){return 0;}' > "${scratch}/probe.cc"
  if c++ "-fsanitize=${flag}" "${scratch}/probe.cc" \
        -o "${scratch}/probe" >/dev/null 2>&1; then
    ok=1
  fi
  rm -rf "${scratch}"
  [[ "${ok}" == "1" ]]
}

# Registry smoke slice: exercises the string-keyed CLI surface headlessly
# — `workload_tool solvers` plus one registry-driven solve per registered
# solver (2-thread session pool) over two tiny generated instances. The
# planted instance plants a 2-set optimum so every solver, including
# pair_finder, genuinely succeeds; it stores every set dense. The uniform
# instance stores all but one set sparse, so every solver also reads
# sparse spans straight from the mapping. Any solver erroring or
# reporting infeasible fails the run.
run_registry_smoke() {
  local build_dir="$1"
  local tool="${build_dir}/examples/workload_tool"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  "${tool}" gen planted 256 24 2 7 "${tmp}/smoke.ssc" >/dev/null
  "${tool}" convert "${tmp}/smoke.ssc" "${tmp}/smoke.sscb1" >/dev/null
  "${tool}" solvers >/dev/null
  local solver
  while IFS= read -r solver; do
    echo "registry smoke (${build_dir}): ${solver}"
    "${tool}" solve "${tmp}/smoke.sscb1" "${solver}" threads=2 >/dev/null
  done < <("${tool}" solvers --names)
  "${tool}" gen uniform 2048 96 40 7 "${tmp}/sparse.ssc" >/dev/null
  "${tool}" convert "${tmp}/sparse.ssc" "${tmp}/sparse.sscb1" >/dev/null
  local sparse_sets
  sparse_sets="$("${tool}" info "${tmp}/sparse.sscb1" |
    awk -F'|' '/sparse sets/ { split($3, v, "/"); print v[1] + 0 }')"
  if [[ -z "${sparse_sets}" || "${sparse_sets}" -eq 0 ]]; then
    echo "check.sh: FATAL: registry smoke: sparse instance has no sparse" \
      "sets" >&2
    exit 1
  fi
  while IFS= read -r solver; do
    # The uniform instance has no two sets covering the universe, so
    # pair_finder correctly reports that no covering pair exists.
    [[ "${solver}" == "pair_finder" ]] && continue
    echo "registry smoke (${build_dir}): ${solver} (${sparse_sets} sparse sets)"
    "${tool}" solve "${tmp}/sparse.sscb1" "${solver}" threads=2 >/dev/null
  done < <("${tool}" solvers --names)
  # Traced solves through the same CLI surface: arm a TraceRecorder
  # (--trace/--stats), then prove each chrome-trace sidecar is loadable
  # JSON with complete spans. Under the sanitizer lanes this runs the
  # whole emit/merge/export pipeline instrumented. perfbench's per-layer
  # rows (core.subsolve_ms, core.guesses) find the solvers' phases by
  # span name, so the phase spans are required by name too: renaming one
  # fails here instead of silently zeroing those rows.
  echo "registry smoke (${build_dir}): traced assadi solve"
  "${tool}" solve "${tmp}/smoke.sscb1" assadi alpha=2 threads=2 \
    --trace="${tmp}/trace.json" --stats >/dev/null
  echo "registry smoke (${build_dir}): traced demaine solve"
  "${tool}" solve "${tmp}/smoke.sscb1" demaine alpha=2 threads=2 \
    --trace="${tmp}/demaine_trace.json" >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${tmp}/trace.json" "${tmp}/demaine_trace.json" <<'PYEOF'
import json, sys

def complete_span_names(path):
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    names = {e.get("name") for e in events if e.get("ph") == "X"}
    assert names, f"{path}: no complete spans"
    return names, len(events)

assadi, count = complete_span_names(sys.argv[1])
missing = {"guess", "prune", "iteration", "subsolve"} - assadi
assert not missing, f"traced assadi solve lacks spans {sorted(missing)}"
demaine, _ = complete_span_names(sys.argv[2])
assert "greedy_subsolve" in demaine, \
    "traced demaine solve lacks the greedy_subsolve span"
print(f"registry smoke: trace ok ({count} events)")
PYEOF
  fi
}

# Serve smoke slice: boots the solve daemon (workload_served) on a temp
# Unix socket over a tiny planted instance, then drives it through the
# client verb of workload_tool — ping, one remote solve per registered
# solver, a traced solve (--breakdown), the Prometheus stats page, and a
# clean client-initiated shutdown. Any wire error, infeasible solve, or
# daemon outliving its shutdown request fails the run. Under the
# sanitizer lanes the whole socket/ring/session path runs instrumented.
run_serve_smoke() {
  local build_dir="$1"
  local tool="${build_dir}/examples/workload_tool"
  local daemon="${build_dir}/examples/workload_served"
  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064  # expand ${tmp} now; it is loop-local
  trap "rm -rf '${tmp}'" RETURN
  "${tool}" gen planted 256 24 2 7 "${tmp}/smoke.ssc" >/dev/null
  "${tool}" convert "${tmp}/smoke.ssc" "${tmp}/smoke.sscb1" >/dev/null
  local endpoint="unix:${tmp}/solve.sock"
  "${daemon}" --listen="${endpoint}" --instance="w=${tmp}/smoke.sscb1" \
    --workers=2 --ring=4 --trace > "${tmp}/daemon.log" 2>&1 &
  local daemon_pid=$!
  # The daemon prints `listening on <endpoint>` once the socket is bound.
  local tries=0
  until grep -q "listening on" "${tmp}/daemon.log" 2>/dev/null; do
    tries=$((tries + 1))
    if [[ "${tries}" -gt 100 ]] || ! kill -0 "${daemon_pid}" 2>/dev/null; then
      echo "check.sh: FATAL: serve smoke: daemon failed to start" >&2
      cat "${tmp}/daemon.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  "${tool}" client "${endpoint}" ping >/dev/null
  local solver
  while IFS= read -r solver; do
    echo "serve smoke (${build_dir}): ${solver}"
    "${tool}" client "${endpoint}" solve w "${solver}" >/dev/null
  done < <("${tool}" solvers --names)
  echo "serve smoke (${build_dir}): traced assadi solve"
  "${tool}" client "${endpoint}" solve w assadi alpha=2 --breakdown \
    >/dev/null
  "${tool}" client "${endpoint}" stats | grep -q "streamsc_serve_requests"
  # Live reload: re-mmap the instance under its name (reload without a
  # path would retire it), prove the daemon keeps serving, and require
  # the swap counter.
  echo "serve smoke (${build_dir}): live reload"
  "${tool}" client "${endpoint}" reload w "${tmp}/smoke.sscb1" >/dev/null
  "${tool}" client "${endpoint}" solve w assadi alpha=2 >/dev/null
  "${tool}" client "${endpoint}" stats | grep -q "streamsc_serve_reloads"
  "${tool}" client "${endpoint}" shutdown >/dev/null
  if ! wait "${daemon_pid}"; then
    echo "check.sh: FATAL: serve smoke: daemon exited non-zero" >&2
    cat "${tmp}/daemon.log" >&2
    exit 1
  fi
}

# Dynamic smoke slice: the delta-overlay surface through the CLI — init
# an empty sscd1 log against a tiny planted base, mutate it (uniform
# adds, a remove, a replace), solve through the composed overlay with
# --stats and require the dynamic.* Prometheus counters, run watch mode
# headlessly (--max-solves=1 exits after the open solve), then compact
# the overlay to a plain sscb1 and prove the folded instance still
# solves. Any rejected delta op, infeasible solve, or missing counter
# fails the run.
run_dynamic_smoke() {
  local build_dir="$1"
  local tool="${build_dir}/examples/workload_tool"
  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064  # expand ${tmp} now; it is loop-local
  trap "rm -rf '${tmp}'" RETURN
  "${tool}" gen planted 256 24 2 7 "${tmp}/base.ssc" >/dev/null
  "${tool}" convert "${tmp}/base.ssc" "${tmp}/base.sscb1" >/dev/null
  "${tool}" delta "${tmp}/base.sscb1" "${tmp}/delta.sscd1" init >/dev/null
  "${tool}" delta "${tmp}/base.sscb1" "${tmp}/delta.sscd1" \
    add-uniform 3 16 7 >/dev/null
  "${tool}" delta "${tmp}/base.sscb1" "${tmp}/delta.sscd1" remove 5 \
    >/dev/null
  "${tool}" delta "${tmp}/base.sscb1" "${tmp}/delta.sscd1" replace 6 16 11 \
    >/dev/null
  echo "dynamic smoke (${build_dir}): overlay solve"
  "${tool}" solve "${tmp}/base.sscb1" assadi alpha=2 \
    --delta="${tmp}/delta.sscd1" --stats > "${tmp}/solve.out"
  grep -q "streamsc_dynamic_cold_solves 1" "${tmp}/solve.out"
  grep -q "streamsc_dynamic_delta_records 5" "${tmp}/solve.out"
  echo "dynamic smoke (${build_dir}): watch + compact"
  "${tool}" watch "${tmp}/base.sscb1" "${tmp}/delta.sscd1" assadi alpha=2 \
    --max-solves=1 --stats | grep -q "streamsc_dynamic_"
  "${tool}" compact "${tmp}/base.sscb1" "${tmp}/delta.sscd1" \
    "${tmp}/compacted.sscb1" >/dev/null
  "${tool}" solve "${tmp}/compacted.sscb1" assadi alpha=2 >/dev/null
}

# Project-invariant linter: cheap, dependency-free, runs on every
# check.sh invocation so layer/determinism/check-policy violations never
# land. (clang-tidy is the separate, heavier lane in scripts/tidy.sh.)
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/lint_streamsc.py
else
  missing_tool "lint_streamsc" "python3 not found"
fi

if [[ "${TIER1:-1}" == "1" ]]; then
  # shellcheck disable=SC2086  # CMAKE_ARGS is intentionally word-split
  cmake -B "${BUILD_DIR}" -S . ${CMAKE_ARGS:-}
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"
  # The zero-allocation steady-state proofs, named as their own slice:
  # all 9 registry solvers must perform zero heap allocations after
  # warm-up at 1 and 8 threads (operator-new interposer; see
  # tests/testing/alloc_counter.h). Already part of the full run above —
  # repeated here so the memory-model guarantee fails loudly under its
  # own name.
  ctest --test-dir "${BUILD_DIR}" -L 'alloc' --output-on-failure -j "${JOBS}"
  # Observability slice, named: trace-ring overflow policy, counter-merge
  # determinism, chrome-trace parse-back, Prometheus export shape, and
  # the traced halves of the alloc/conformance proofs (ctest -L obs).
  ctest --test-dir "${BUILD_DIR}" -L 'obs' --output-on-failure -j "${JOBS}"
  run_registry_smoke "${BUILD_DIR}"
  run_serve_smoke "${BUILD_DIR}"
  run_dynamic_smoke "${BUILD_DIR}"
fi

if [[ "${SANITIZE:-0}" == "1" ]]; then
  if ! compiler_supports_sanitizer "address,undefined"; then
    missing_tool "ASan/UBSan lane" "compiler cannot link ASan/UBSan"
  else
    SAN_BUILD_DIR="${SAN_BUILD_DIR:-build-asan}"
    cmake -B "${SAN_BUILD_DIR}" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSTREAMSC_ASAN_UBSAN=ON
    cmake --build "${SAN_BUILD_DIR}" -j "${JOBS}"
    # Fast, high-signal slice under the sanitizers: the single-layer unit
    # suites, the randomized property suites, and the io suites so ASan
    # covers the mmap mapping lifetime end to end.
    # (-L matches regexes: 'io' must be anchored or it also selects every
    # 'integration' suite. -LE parallel: the parallel-labeled suites —
    # engine primitives, the solver conformance matrix — run only in the
    # dedicated slice below, at a different schedule width, so data races
    # still surface as ASan/UBSan-visible breakage without paying for the
    # heaviest suites twice.)
    ctest --test-dir "${SAN_BUILD_DIR}" -L 'unit|property|^io$' \
      -LE 'parallel' --output-on-failure -j "${JOBS}"
    # Conformance-matrix slice: the parallel-labeled suites (engine
    # primitives, the cross-algorithm solver matrix over
    # {memory,file,mmap} x {1,2,8} threads) under ASan/UBSan, scheduled 8
    # tests wide so the 8-thread pools genuinely contend while sanitized.
    ctest --test-dir "${SAN_BUILD_DIR}" -L 'parallel' \
      --output-on-failure -j 8
    # Zero-allocation slice under ASan: the interposed operator new
    # forwards to ASan's malloc, so the steady-state zero-alloc proof
    # holds with full heap poisoning armed (allocation decisions are
    # source-level and identical to the release build).
    ctest --test-dir "${SAN_BUILD_DIR}" -L 'alloc' \
      --output-on-failure -j "${JOBS}"
    # The registry smoke again under ASan/UBSan: the CLI surface (option
    # parsing, session source sniffing, per-run engine lifetime)
    # sanitized end to end.
    run_registry_smoke "${SAN_BUILD_DIR}"
    # And the solve daemon: sockets, ring admission, warm sessions, and
    # the mmap instance cache with full heap poisoning armed.
    run_serve_smoke "${SAN_BUILD_DIR}"
    # Delta-overlay surface under ASan/UBSan: log replay, overlay
    # composition, warm-start bookkeeping, and Materialize, poisoned.
    run_dynamic_smoke "${SAN_BUILD_DIR}"
  fi
fi

if [[ "${TSAN:-0}" == "1" ]]; then
  if ! compiler_supports_sanitizer "thread"; then
    missing_tool "TSan lane" "compiler cannot link ThreadSanitizer"
  else
    TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
    cmake -B "${TSAN_BUILD_DIR}" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSTREAMSC_TSAN=ON
    cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}"
    # The deterministic-commit contract must be provably race-free, not
    # just byte-identical: every parallel-labeled suite (engine
    # primitives, GainScanPass/TransformPass/IndependentScanPass, the
    # 9-solver conformance matrix) runs under TSan. Two schedule widths —
    # serialized (-j 1, worker pools contend only with themselves) and
    # wide (-j 8, pools from different suites contend for cores) — shake
    # out different interleavings. tsan.supp holds the (commented)
    # accepted suppressions; any other report fails the run.
    export TSAN_OPTIONS="suppressions=$(pwd)/tsan.supp ${TSAN_OPTIONS:-}"
    ctest --test-dir "${TSAN_BUILD_DIR}" -L 'parallel' \
      --output-on-failure -j 1
    ctest --test-dir "${TSAN_BUILD_DIR}" -L 'parallel' \
      --output-on-failure -j 8
    # Registry smoke under TSan: multi-threaded solves through the whole
    # session surface (option parsing -> engine pool -> commit).
    run_registry_smoke "${TSAN_BUILD_DIR}"
    # Serve smoke under TSan: acceptor + worker threads + client all
    # contend over the ring and shared instance cache, instrumented.
    run_serve_smoke "${TSAN_BUILD_DIR}"
  fi
fi

if [[ "${FUZZ:-0}" == "1" ]]; then
  FUZZ_BUILD_DIR="${FUZZ_BUILD_DIR:-build-fuzz}"
  FUZZ_CMAKE_ARGS="-DCMAKE_BUILD_TYPE=RelWithDebInfo -DSTREAMSC_FUZZ=ON"
  # The smoke is most valuable with ASan/UBSan armed; fall back to an
  # unsanitized build (aborts still fail) when the runtime is missing.
  if compiler_supports_sanitizer "address,undefined"; then
    FUZZ_CMAKE_ARGS="${FUZZ_CMAKE_ARGS} -DSTREAMSC_ASAN_UBSAN=ON"
  else
    missing_tool "fuzz smoke sanitizers" \
      "compiler cannot link ASan/UBSan; running the smoke unsanitized"
  fi
  # shellcheck disable=SC2086
  cmake -B "${FUZZ_BUILD_DIR}" -S . ${FUZZ_CMAKE_ARGS}
  cmake --build "${FUZZ_BUILD_DIR}" -j "${JOBS}" \
    --target fuzz_ssc1 fuzz_sscb1 fuzz_sscd1 fuzz_registry_options \
             fuzz_serve_frame
  # Fixed-iteration attack on the five untrusted-input parsers (ssc1
  # text, sscb1 binary, sscd1 delta log, registry options, serve wire
  # frames): corpus replay + deterministic mutations; any abort or
  # sanitizer report fails.
  ctest --test-dir "${FUZZ_BUILD_DIR}" -L 'fuzz' --output-on-failure
fi

echo "check.sh: all green"
