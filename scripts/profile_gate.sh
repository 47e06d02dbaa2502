#!/usr/bin/env bash
# End-to-end host-time profiling gate:
#
#   scripts/profile_gate.sh [build-dir]
#
# Runs chaos_training (8 ranks, faults, stragglers, one crash) with
# FFTGRAD_PROFILE=1 so the in-process sampling profiler is live for the
# whole run, then checks the contract ISSUE acceptance demands:
#
#   - the folded-stack file exists, is non-empty, and every line obeys the
#     `rank:<r>;cat:<c>;span:<s>;<frames...> <count>` grammar (verified by
#     `run_report --check-profile`, which parses, re-renders, and fails
#     unless the round trip is byte-identical);
#   - the at-exit hot-path report was written next to it and contains the
#     ranked table plus at least one row tagged "(SIMD candidate)"
#     (chaos_training's time goes to FFT/quantize/pack/CRC code);
#   - run_report cross-references host self-time against the simulated
#     critical-path categories without error.
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

echo "==> chaos_training under FFTGRAD_PROFILE (sampling at 250 Hz)"
FFTGRAD_PROFILE=1 \
FFTGRAD_PROFILE_HZ=250 \
FFTGRAD_PROFILE_OUT="$tmp/profile.folded" \
FFTGRAD_LEDGER="$tmp/ledger.jsonl" \
  "$build_dir/examples/chaos_training" > /dev/null

[[ -s "$tmp/profile.folded" ]] || { echo "error: no folded-stack output written" >&2; exit 1; }
[[ -s "$tmp/profile.folded.report.txt" ]] || {
  echo "error: no hot-path report written" >&2; exit 1; }
grep -qi "hot paths" "$tmp/profile.folded.report.txt" || {
  echo "error: report is missing its headline section" >&2; exit 1; }
grep -qF "(SIMD candidate)" "$tmp/profile.folded.report.txt" || {
  echo "error: no SIMD-candidate row in the hot-path report (expected FFT/quantize/pack/CRC leaves)" >&2
  exit 1; }

echo "==> run_report --check-profile (grammar round trip + critpath cross-reference)"
"$build_dir/examples/run_report" --check-profile --profile "$tmp/profile.folded" \
  "$tmp/ledger.jsonl" > "$tmp/report.txt"
grep -qi "hot paths" "$tmp/report.txt"
grep -q "profile check passed" "$tmp/report.txt"

echo "profile gate ok"
