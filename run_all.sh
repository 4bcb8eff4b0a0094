#!/usr/bin/env bash
# Regenerates test_output.txt and bench_output.txt (the recorded runs), then
# re-runs the tier-1 tests under AddressSanitizer so the obs registry
# atomics, trace recorder, and thread-pool instrumentation are exercised
# under ASan on every recorded run, plus a CLI smoke pass that exercises the
# per-class exit codes end to end.
#
# Failure handling: `set -o pipefail` makes a failing ctest/bench propagate
# through the `tee` pipelines; every stage runs through run_stage(), which
# decodes the CLI's error taxonomy (status.hpp) into a readable class name
# before stopping the script — the final ALL-RUNS-COMPLETE marker prints
# only when every stage passed.
set -uo pipefail
cd /root/repo

# DTW kernel for this recorded run (scalar|avx2|auto). The caller's ABG_SIMD is
# honored by every stage below (the binaries resolve it themselves); the kernel
# is stamped into each run's metrics report ("meta" -> "simd_kernel"), so the
# recorded outputs are never silently cross-kernel. Only the perf-report
# stage pins scalar, because the committed baseline was recorded on the
# scalar oracle.
echo "ABG_SIMD=${ABG_SIMD:-auto} (DTW kernel; see src/distance/simd.hpp)"

# Map the abagnale_cli/status.hpp exit codes to their error classes.
decode_exit_class() {
  case "$1" in
    0) echo "ok" ;;
    1) echo "unknown-error" ;;
    2) echo "usage-error" ;;
    3) echo "parse-error" ;;
    4) echo "invalid-trace" ;;
    5) echo "timeout" ;;
    6) echo "cancelled" ;;
    7) echo "io-error" ;;
    8) echo "numeric-error" ;;
    9) echo "invalid-argument" ;;
    *) echo "exit-$1" ;;
  esac
}

# run_stage <name> <cmd...>: run the stage, and on failure report which
# error class the exit code maps to before aborting the script.
run_stage() {
  local name="$1"
  shift
  "$@"
  local rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "STAGE-FAILED: $name (exit $rc: $(decode_exit_class "$rc"))" >&2
    exit "$rc"
  fi
}

run_tests() { ctest --test-dir build --output-on-failure 2>&1 | tee /root/repo/test_output.txt; }
run_stage "tier1-tests" run_tests

run_benches() {
  {
    for b in build/bench/*; do
      if [ -x "$b" ] && [ -f "$b" ]; then "$b" || return $?; fi
    done
  } 2>&1 | tee /root/repo/bench_output.txt
}
run_stage "benchmarks" run_benches

# Run-to-run perf gate: the DTW kernel alone (so the cells/evals ratio is
# invariant to benchmark iteration counts) against the committed baseline.
# A drifting ratio means the kernel started doing different work per eval —
# abg_report exits 1 and the stage fails. ABG_SIMD is pinned to scalar to
# match the baseline's recorded kernel; abg_report would (correctly) breach
# on a cross-kernel comparison otherwise.
perf_report() {
  local tmp
  tmp="$(mktemp -d)"
  (cd "$tmp" && ABG_SIMD=scalar /root/repo/build/bench/bench_micro \
      --benchmark_filter='^BM_Dtw/1024$' >/dev/null) || return $?
  ./build/tools/abg_report BENCH_baseline.json "$tmp/bench_micro.metrics.json" \
      --require distance.dtw_evals \
      --require obs.series_overflow=0 \
      --gate-ratio distance.dtw_cells/distance.dtw_evals=2 \
      2>&1 | tee /root/repo/perf_report.txt
  local rc=$?
  rm -rf "$tmp"
  return "$rc"
}
run_stage "perf-report" perf_report

# CLI smoke: collect a short trace and score the known handler against it,
# so the Status-based I/O, validation, and exit-code plumbing all run end to
# end on every recorded run.
cli_smoke() {
  local tmp
  tmp="$(mktemp -d)"
  ./build/examples/abagnale_cli collect reno "$tmp/reno.csv" 10 40 5 || return $?
  ./build/examples/abagnale_cli match reno "$tmp/reno.csv" || return $?
  # A missing input must exit with the io-error class (7), not a generic 1.
  ./build/examples/abagnale_cli classify "$tmp/not_there.csv"
  local rc=$?
  rm -rf "$tmp"
  if [ "$rc" -ne 7 ]; then
    echo "expected io-error exit (7) for a missing trace, got $rc" >&2
    return 1
  fi
  return 0
}
run_stage "cli-smoke" cli_smoke

# Sweep stage, batch mode: the multi-CCA sweep runs as ONE process through
# `abagnale_cli --batch` (shared scoring pool, shared eval cache, per-job
# exit classes) instead of a shell loop of sequential synthesize calls. The
# consolidated report lands in batch_report.json.
batch_sweep() {
  local tmp
  tmp="$(mktemp -d)"
  ./build/examples/abagnale_cli collect reno "$tmp/reno.csv" 10 40 8 || return $?
  ./build/examples/abagnale_cli collect cubic "$tmp/cubic.csv" 10 40 8 || return $?
  cat > "$tmp/sweep.json" <<EOF
{
  "threads": 4,
  "max_concurrent_jobs": 2,
  "report": "/root/repo/batch_report.json",
  "jobs": [
    {"name": "reno", "traces": ["$tmp/reno.csv"], "dsl": "reno",
     "timeout_s": 90, "max_iterations": 2, "initial_samples": 4},
    {"name": "cubic", "traces": ["$tmp/cubic.csv"], "dsl": "cubic",
     "timeout_s": 90, "max_iterations": 2, "initial_samples": 4}
  ]
}
EOF
  # --status-port 0 binds an ephemeral localhost port: the live endpoint is
  # exercised (start, serve thread, clean shutdown) on every recorded run;
  # the trace file records one Perfetto lane per job, and the search journal
  # records every candidate's lifecycle (split per job at exit).
  ./build/examples/abagnale_cli --batch "$tmp/sweep.json" \
      --status-port 0 --trace-out /root/repo/batch_trace.json \
      --journal-out /root/repo/batch_search.journal \
      2>&1 | tee /root/repo/batch_output.txt
  local rc=$?
  # The journal must be queryable whatever the sweep's outcome (a timeout
  # partial still journals everything it did). No --check here: the strict
  # funnel-vs-metrics reconciliation runs in the CI bench-smoke job.
  ./build/tools/abg_inspect funnel /root/repo/batch_search.journal || return $?
  # Per-kernel cost attribution: which DTW kernel burned the cells this run.
  ./build/tools/abg_inspect hotspots /root/repo/batch_search.journal --by kernel || return $?
  # A manifest with an unknown key must be rejected with invalid-argument (9)
  # before any job runs.
  echo '{"jobs": [{"traces": ["x.csv"], "timout_s": 5}]}' > "$tmp/typo.json"
  ./build/examples/abagnale_cli --batch "$tmp/typo.json"
  local typo_rc=$?
  rm -rf "$tmp"
  if [ "$typo_rc" -ne 9 ]; then
    echo "expected invalid-argument exit (9) for a typoed manifest, got $typo_rc" >&2
    return 1
  fi
  # Accept timeout (5) for the real sweep: budgets are tight on slow runners,
  # and a best-so-far partial is a valid recorded outcome there.
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 5 ]; then return "$rc"; fi
  return 0
}
run_stage "batch-sweep" batch_sweep

asan_pass() {
  cmake -B build-asan -S . -DABG_SANITIZE=address || return $?
  cmake --build build-asan -j || return $?
  ctest --test-dir build-asan --output-on-failure -j 2>&1 | tee /root/repo/asan_output.txt
}
run_stage "asan-tests" asan_pass

echo "ALL-RUNS-COMPLETE"
