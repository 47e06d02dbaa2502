#!/usr/bin/env bash
# End-to-end telemetry gate:
#
#   scripts/telemetry_gate.sh [build-dir]
#
# Runs chaos_training (8 ranks, drops, corruption, a straggler, one crash)
# once with the tracer, the run ledger and the host-time profiler (250 Hz)
# all on, then reads every artifact back through one
# `run_report --check --trace ... --profile ... <ledger>` call, which
# fails unless:
#
#   - the critical path of the exported trace tiles every iteration window
#     (per-category times sum to the simulated end-to-end time within
#     1e-6), the analyzer found no problem of its own, and every consume
#     edge has happens-before support;
#   - the folded profile has samples and every line obeys the
#     `rank:<r>;cat:<c>;span:<s>;<frames...> <count>` grammar (parsed,
#     re-rendered and compared byte for byte);
#   - the ledger passes its schema check.
#
# It also checks that the profiler's at-exit report (whose header carries
# the sampler's own accounting) names the 250 Hz rate and has at least one
# row tagged "(SIMD candidate)" (chaos_training's time goes to FFT,
# quantize, pack and CRC code), that run_report printed the critical-path,
# reconciliation and hot-path sections, and that every table in its output
# has exactly one separator line, right under its header.
#
# Exit status: 0 gate passed, non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
for tool in examples/chaos_training examples/run_report; do
  [[ -x "$build_dir/$tool" ]] || { echo "error: $build_dir/$tool not built" >&2; exit 2; }
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> chaos_training with trace, ledger and profiler (250 Hz)"
FFTGRAD_TRACE="$tmp/trace.json" \
FFTGRAD_LEDGER="$tmp/ledger.jsonl" \
FFTGRAD_PROFILE=1 \
FFTGRAD_PROFILE_HZ=250 \
FFTGRAD_PROFILE_OUT="$tmp/profile.folded" \
  "$build_dir/examples/chaos_training" > /dev/null

[[ -s "$tmp/profile.folded" ]] || { echo "error: no folded-stack output written" >&2; exit 1; }
report="$tmp/profile.folded.report.txt"
[[ -s "$report" ]] || { echo "error: no hot-path report written" >&2; exit 1; }
grep -q "^Hot paths (host self-time): .* at 250 Hz" "$report" || {
  echo "error: the hot-path report's header does not name the 250 Hz rate" >&2; exit 1; }
grep -qF "(SIMD candidate)" "$report" || {
  echo "error: no SIMD-candidate row in the hot-path report (expected FFT/quantize/pack/CRC leaves)" >&2
  exit 1; }

echo "==> run_report --check over the trace, the profile and the ledger"
"$build_dir/examples/run_report" --check --trace "$tmp/trace.json" \
  --profile "$tmp/profile.folded" "$tmp/ledger.jsonl" > "$tmp/run_report.txt"
for section in "=== Critical path (" "check: critical path is structurally valid" \
               "=== Ledger reconciliation vs comm on path (" "=== Hot paths (host self-time) ===" \
               "profile check passed"; do
  grep -qF "$section" "$tmp/run_report.txt" || {
    echo "error: run_report printed no '$section'" >&2; exit 1; }
done

echo "==> every run_report table has one separator line, under its header"
awk '
  function end_table() {
    if (rows == 1) { print "table without a separator line at line " NR - 1 > "/dev/stderr"; bad = 1 }
    rows = 0
  }
  /^\|/ {
    rows++
    if ($0 ~ /^\|\|/) { print "double pipe at line " NR ": " $0 > "/dev/stderr"; bad = 1 }
    separator = ($0 ~ /^[|-]+$/)
    if (separator != (rows == 2)) { print "misplaced separator at line " NR ": " $0 > "/dev/stderr"; bad = 1 }
    if (rows == 2) tables++
    next
  }
  { end_table() }
  END {
    end_table()
    if (tables < 8) { print "only " tables + 0 " tables in the report" > "/dev/stderr"; bad = 1 }
    exit bad
  }
' "$tmp/run_report.txt"

echo "telemetry gate ok"
