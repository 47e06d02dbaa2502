#!/usr/bin/env bash
# Build the CMake preset matrix and run the full test suite under each.
#
#   scripts/check.sh [options] [jobs]
#
#   --preset NAME   check only NAME (default | asan | tsan | analyze |
#                   thread-safety); repeatable
#   --fuzz          additionally run the wire-format fuzz targets (-L fuzz)
#                   as their own reported step under every checked preset
#   jobs            parallel build/test jobs (default: all cores)
#
# Without options, one invocation covers the whole matrix: the Release
# build, the address/UB-sanitized build, the thread-sanitized build with
# the correctness-analysis instrumentation compiled in, the static-
# analysis gate (GCC -fanalyzer + -Wconversion -Wshadow as errors over the
# first-party libraries; the `analyze` preset builds no tests), and the
# Clang Thread Safety Analysis gate (the `thread-safety` preset plus the
# seeded annotation-mutant matrix; reported SKIP on hosts without clang++,
# since GCC cannot run the analysis). Ends with a one-line-per-step
# pass/fail table; exit status is non-zero if any step failed (every step
# still runs, so one broken preset does not hide another).
set -uo pipefail
cd "$(dirname "$0")/.."

presets=()
run_fuzz=0
jobs=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --preset)
      [[ $# -ge 2 ]] || { echo "error: --preset needs an argument" >&2; exit 2; }
      presets+=("$2")
      shift 2
      ;;
    --fuzz)
      run_fuzz=1
      shift
      ;;
    -h|--help)
      awk 'NR == 1 { next } /^set -uo pipefail/ { exit } { sub(/^# ?/, ""); print }' "$0"
      exit 0
      ;;
    *)
      jobs="$1"
      shift
      ;;
  esac
done
[[ ${#presets[@]} -gt 0 ]] || presets=(default asan tsan analyze thread-safety)
[[ -n "$jobs" ]] || jobs="$(nproc)"

results=()   # "preset<TAB>step<TAB>status" rows for the summary table
failed=0

note() {
  local preset="$1" step="$2" status="$3"
  results+=("${preset}	${step}	${status}")
  [[ "$status" == PASS || "$status" == SKIP ]] || failed=1
}

run_step() {
  local preset="$1" step="$2"
  shift 2
  echo "==> ${preset}: ${step}"
  if "$@"; then
    note "$preset" "$step" PASS
  else
    note "$preset" "$step" FAIL
    return 1
  fi
}

for preset in "${presets[@]}"; do
  # The thread-safety preset is driven end to end by its gate script (it
  # owns the configure/build plus the annotation-mutant matrix) and is the
  # one step allowed to SKIP: exit 3 means clang++ is not installed here.
  if [[ "$preset" == thread-safety ]]; then
    echo "==> ${preset}: gate"
    scripts/thread_safety_check.sh "$jobs"
    rc=$?
    if [[ "$rc" == 0 ]]; then
      note "$preset" gate PASS
    elif [[ "$rc" == 3 ]]; then
      note "$preset" gate SKIP
    else
      note "$preset" gate FAIL
    fi
    continue
  fi
  run_step "$preset" configure cmake --preset "$preset" || continue
  run_step "$preset" build cmake --build --preset "$preset" -j "$jobs" || continue
  # The analyze preset is a compile-time gate: -fanalyzer findings surface
  # as build errors, and it produces no test binaries to run.
  [[ "$preset" == analyze ]] && continue
  # The labels that get their own reported row below run only there: the
  # full-suite step excludes them, so each test runs once per preset. The
  # exhaustive label (the fp16 kernel and the range float's bulk encode
  # over all 2^32 floats, ~20 s in Release) has a row under the default
  # preset only: a sanitized build would take minutes for no new coverage.
  own_rows=(chaos causality exhaustive)
  if [[ "$preset" == default || "$preset" == asan ]]; then
    own_rows+=(ledger recovery critpath profile)
  fi
  [[ "$preset" == default ]] && own_rows+=(lint)
  [[ "$run_fuzz" == 1 ]] && own_rows+=(fuzz)
  own_rows_regex="^($(IFS='|'; echo "${own_rows[*]}"))\$"
  run_step "$preset" test ctest --preset "$preset" -j "$jobs" -LE "$own_rows_regex"
  # The chaos label (seeded fault-injection plans) gets its own reported
  # row: a hang or schedule divergence under a sanitizer should be visible
  # as a chaos failure, not buried in the full-suite step.
  run_step "$preset" chaos ctest --preset "$preset" -j "$jobs" -L chaos
  # Likewise the causality label (vector-clock happens-before tracking and
  # the protocol-mutation detection proof): its mutation tests compile in
  # under asan/tsan (FFTGRAD_ANALYSIS), the value-layer tests everywhere.
  run_step "$preset" causality ctest --preset "$preset" -j "$jobs" -L causality
  # The ledger label runs short instrumented cluster/trainer runs and
  # validates the run-ledger JSONL they emit (schema, reconciliation, and
  # monitor semantics). Reported for the default and asan presets: release
  # covers the zero-overhead disabled path, asan the FFTGRAD_ANALYSIS
  # alert path.
  if [[ "$preset" == default || "$preset" == asan ]]; then
    run_step "$preset" ledger ctest --preset "$preset" -j "$jobs" -L ledger
    # The recovery label covers the elastic-recovery subsystem: the
    # RecoveryController action mapping and decision-state sync, atomic
    # checkpoint retention (kill-mid-write regression), the EF re-credit
    # fix, remediation ledger rows, and the lossless reconciliation of
    # rejoin state transfers against the network model.
    run_step "$preset" recovery ctest --preset "$preset" -j "$jobs" -L recovery
    # The critpath label proves the cross-rank critical-path analyzer's
    # invariants in-process (hand-built DAGs, per-category sums within
    # 1e-6 of the simulated end-to-end time, 16-seed determinism, fault
    # attribution).
    run_step "$preset" critpath ctest --preset "$preset" -j "$jobs" -L critpath
    # The profile label covers the host-time sampling profiler: folded
    # grammar round trip, hot-path ranking, the disabled-path
    # zero-allocation contract, SIGPROF span attribution, and multi-rank
    # rank attribution.
    run_step "$preset" profile ctest --preset "$preset" -j "$jobs" -L profile
    # The telemetry gate then runs chaos_training once with the tracer,
    # the ledger and the profiler on, and reads all three artifacts back
    # through one run_report --check.
    build_dir="build"; [[ "$preset" == asan ]] && build_dir="build-asan"
    run_step "$preset" telemetry-e2e scripts/telemetry_gate.sh "$build_dir"
  fi
  if [[ "$preset" == default ]]; then
    run_step "$preset" exhaustive ctest --preset "$preset" -j "$jobs" -L exhaustive
    # Golden-output gate: every bench with a committed
    # bench/golden/<bench>.txt (the figures' α–β model outputs and
    # seeded-training accuracies) must print exactly that file; the diff
    # names the bench and the changed line. A difference is a behaviour
    # change: to accept it, rerun the bench into its golden file and say
    # why in CHANGES.md. Host time is the repository benchmark's to gate.
    run_step "$preset" golden scripts/golden_gate.sh build
    # The repository benchmark's own checks (benchmark/README.md): at most
    # 5 steps per workload, traced and untraced, failing on a missing
    # metric, a wrong unit, a failed step, replicas that are not
    # bit-identical, or a failed attribution check.
    run_step "$preset" bench-smoke bash benchmark/run.sh --smoke
    # Unit/trust-boundary lint gate: fftgrad_lint selftest (the seeded
    # violation fixtures must all still be caught) followed by the scoped
    # tree scan against the audited allowlist. Gating: a finding or a
    # stale allowlist entry fails the default preset.
    run_step "$preset" lint scripts/lint_units.sh build
    # Suppression audit: every tsan.supp entry must carry a rationale
    # comment and still match something tracked; stale or bare entries
    # fail so the suppression file cannot quietly grow holes.
    run_step "$preset" tsan-supp scripts/check_tsan_supp.sh
  fi
  if [[ "$run_fuzz" == 1 ]]; then
    run_step "$preset" fuzz ctest --preset "$preset" -j "$jobs" -L fuzz
  fi
done

echo
echo "== check.sh summary =="
printf '%-10s %-10s %s\n' PRESET STEP RESULT
while IFS=$'\t' read -r preset step status; do
  printf '%-10s %-10s %s\n' "$preset" "$step" "$status"
done < <(printf '%s\n' "${results[@]}")

if [[ "$failed" == 0 ]]; then
  echo "All checked presets build and test clean."
else
  echo "FAILURES above." >&2
fi
exit "$failed"
