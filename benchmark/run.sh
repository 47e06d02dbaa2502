#!/usr/bin/env bash
# The repository benchmark. Builds benchmark/ (a CMake project that pulls in
# the fftgrad tree) into .bench_build/, then runs it. Build output goes to
# stderr, so the last line of stdout is always the result.
#
#   bash benchmark/run.sh --workload codec-fft --seed 1 --seconds 20 --trace 0
#       one workload in one process; prints the result JSON last
#   bash benchmark/run.sh [--seed N] [--out FILE]
#       full untraced pass: every workload, 3 interleaved rounds, pooled
#   bash benchmark/run.sh --trace [--seed N] [--out FILE]
#       traced pass: per-layer metrics and the attribution check
#   bash benchmark/run.sh --smoke
#       at most 5 steps per workload; checks names, units and correctness
#   bash benchmark/run.sh --agree A.json B.json
#       compare two full passes against the BENCHMARK.json bounds
#
# benchmark/README.md describes the workloads and metrics.
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build

if [[ ${1:-} != --agree ]]; then
  # Keep the compiler's scratch files inside the checkout too.
  mkdir -p "$build/tmp"
  export TMPDIR=$PWD/$build/tmp
  if [[ ! -f $build/build.ninja && ! -f $build/Makefile ]]; then
    generator=()
    if command -v ninja >/dev/null; then generator=(-G Ninja); fi
    cmake -S benchmark -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" --target fftgrad_bench -j "$(nproc)" >&2
fi

for arg in "$@"; do
  if [[ $arg == --workload ]]; then exec "$build/fftgrad_bench" "$@"; fi
done
exec python3 benchmark/harness.py "$@"
