#!/usr/bin/env bash
# Golden-output gate over the deterministic figure benches:
#
#   scripts/golden_gate.sh [build-dir]
#
# Runs, concurrently, every bench that has a committed
# bench/golden/<bench>.txt and diffs its stdout byte for byte against that
# file. These benches print α–β model outputs and the accuracies of seeded
# training runs, which are the same on every run and at every thread-pool
# size, so a difference is a behaviour change; the diff names the bench
# and the changed lines. Benches that print host times have no golden file.
#
# Each result line gives the bench's wall time, from its launch to its
# exit, and the last line the gate's; the benches share the machine, so a
# bench's time is how long it held the gate up, not its cost alone.
#
# To accept an intended change, rerun the bench into its golden file and
# say why in CHANGES.md, e.g.
#
#   build/bench/bench_fig12_alpha > bench/golden/bench_fig12_alpha.txt
#
# Exit status: 0 gate passed, non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
names=()
for golden in bench/golden/*.txt; do
  name="$(basename "$golden" .txt)"
  [[ -x "$build_dir/bench/$name" ]] || { echo "error: $build_dir/bench/$name not built" >&2; exit 2; }
  names+=("$name")
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The wall clock in seconds, and the seconds since a reading of it, to
# 0.1 s. LC_ALL=C keeps the decimal point a point in every locale.
now() { LC_ALL=C date +%s.%N; }
elapsed() { LC_ALL=C awk -v a="$1" -v b="$(now)" 'BEGIN { printf "%.1f", b - a }'; }

started=$(now)
pids=()
for name in "${names[@]}"; do
  (
    launched=$(now)
    status=0
    "$build_dir/bench/$name" > "$tmp/$name.txt" 2> "$tmp/$name.err" || status=$?
    elapsed "$launched" > "$tmp/$name.seconds"
    exit "$status"
  ) &
  pids+=($!)
done

failed=0
for i in "${!names[@]}"; do
  name="${names[$i]}"
  if ! wait "${pids[$i]}"; then
    echo "FAIL $name: exited non-zero" >&2
    cat "$tmp/$name.err" >&2
    failed=1
  elif ! diff -u --label "bench/golden/$name.txt" --label "$name stdout" \
      "bench/golden/$name.txt" "$tmp/$name.txt"; then
    echo "FAIL $name: stdout differs from bench/golden/$name.txt" >&2
    failed=1
  else
    printf 'ok   %-28s %7s s\n' "$name" "$(cat "$tmp/$name.seconds")"
  fi
done
[[ "$failed" == 0 ]] || { echo "golden gate FAILED after $(elapsed "$started") s" >&2; exit 1; }
echo "golden gate ok (${#names[@]} benches) in $(elapsed "$started") s"
