"""Multi-run modes of the repository benchmark; benchmark/run.sh builds
fftgrad_bench and hands every mode except a single --workload run to this
file.

  run.sh [--seed N] [--out FILE]           full untraced pass
  run.sh --trace [--seed N] [--out FILE]   traced pass
  run.sh --smoke                           CI smoke run
  run.sh --agree A.json B.json             compare two passes

A full pass runs every workload for ROUNDS rounds of BENCHMARK.json's
run_seconds, interleaved (W1 W2 W3 W4 W1 ...), each (workload, round) in
its own process, and has fftgrad_bench pool the rounds' steps into one set
of metrics. Every mode checks each
result's metric names and units against BENCHMARK.json and exits non-zero
when one differs or a correctness check fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BENCH = os.path.join(BUILD, "fftgrad_bench")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
ROUNDS = 3


def declared(trace):
    return {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}


def schema_errors(metrics, trace):
    want = declared(trace)
    errors = [f"missing metric {name}" for name in want if name not in metrics]
    for name, metric in metrics.items():
        if name not in want:
            errors.append(f"undeclared metric {name}")
        elif metric["unit"] != want[name]["unit"]:
            errors.append(f"{name}: unit {metric['unit']} != {want[name]['unit']}")
    return errors


def bench(args, what, trace=False, timeout=180):
    """Runs fftgrad_bench; returns its result line and the errors found in it."""
    proc = subprocess.run([BENCH] + args, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{what}: fftgrad_bench exited {proc.returncode}")
    result = json.loads(lines[-1])
    errors = schema_errors(result["metrics"], trace)
    if not result["correct"] or result["failed"]:
        errors.append("correctness check failed:\n" + "\n".join(lines[:-1]))
    result["attribution"] = [l.strip() for l in lines if l.strip().startswith("attribution:")]
    return result, errors


def run_bench(workload, seed, seconds, trace, steps=0, summary=None):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if steps:
        args += ["--steps", str(steps)]
    if summary:
        args += ["--summary", summary]
    return bench(args, workload, trace, timeout=seconds + 170)


def host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def spread(values):
    """(max - min) / median of one set's per-round values."""
    med = statistics.median(values)
    return (max(values) - min(values)) / abs(med) if med else 0.0


def full_pass(args):
    trace = args.trace
    rounds = 1 if trace else ROUNDS
    results = {w: [] for w in WORKLOADS}
    summaries = {w: [] for w in WORKLOADS}
    errors = []
    for r in range(rounds):
        for w in WORKLOADS:
            summary = None if trace else os.path.join(BUILD, f"summary-{w}-{r}.txt")
            result, errs = run_bench(w, args.seed, SECONDS, trace, summary=summary)
            results[w].append(result)
            summaries[w].append(summary)
            errors += [f"{w} round {r + 1}: {e}" for e in errs]
            print(f"round {r + 1}/{rounds} {w}: {result['attempted']} steps, "
                  f"{result['failed']} failed", flush=True)

    report = {"seed": args.seed, "seconds": SECONDS, "rounds": rounds, "trace": trace,
              **host(), "workloads": {}}
    for w, rs in results.items():
        if trace:
            entry = {"attempted": rs[0]["attempted"], "failed": rs[0]["failed"],
                     "metrics": rs[0]["metrics"], "attribution": rs[0]["attribution"]}
        else:
            pooled, errs = bench(["--pool"] + summaries[w], f"{w} pool")
            errors += [f"{w} pooled: {e}" for e in errs]
            entry = {"attempted": pooled["attempted"], "failed": pooled["failed"],
                     "metrics": pooled["metrics"],
                     "rounds": {name: [r["metrics"][name]["value"] for r in rs]
                                for name in pooled["metrics"]}}
        report["workloads"][w] = entry

    print(f"\nseed {args.seed}, {rounds} round(s) of {SECONDS} s, "
          f"{report['nproc']} CPUs ({report['cpu']})")
    for w, entry in report["workloads"].items():
        print(f"{w}: {entry['attempted']} attempted, {entry['failed']} failed")
        for name, m in entry["metrics"].items():
            rounds_note = ""
            if "rounds" in entry:
                rounds_note = f"  (round spread {spread(entry['rounds'][name]) * 100:.1f}%)"
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{rounds_note}")
        for line in entry.get("attribution", []):
            print(f"  {line}")

    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = args.out or os.path.join(
        BUILD, f"{'trace' if trace else 'pass'}-seed{args.seed}-{stamp}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nwrote {os.path.relpath(out, ROOT)}")
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    return 1 if errors else 0


def smoke(_args):
    start = time.monotonic()
    errors = []
    for w in WORKLOADS:
        for trace in (False, True):
            result, errs = run_bench(w, 1, 60, trace, steps=5)
            errors += [f"{w} trace {int(trace)}: {e}" for e in errs]
            print(f"smoke {w} trace {int(trace)}: {result['attempted']} steps, "
                  f"{'ok' if not errs else 'FAILED'}", flush=True)
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    print(f"smoke {'failed' if errors else 'passed'} in {time.monotonic() - start:.1f} s")
    return 1 if errors else 0


def agree(args):
    a, b = (json.load(open(p)) for p in args.agree)
    if a["trace"] or b["trace"]:
        sys.exit("--agree compares two untraced full passes")
    worse = unresolved = 0
    print(f"{'workload':20s} {'metric':16s} {'A':>12s} {'B':>12s} {'delta':>8s} "
          f"{'bound':>6s} {'spread':>7s}  status")
    for w in WORKLOADS:
        for name, spec in declared(False).items():
            va = a["workloads"][w]["metrics"][name]["value"]
            vb = b["workloads"][w]["metrics"][name]["value"]
            delta = (vb - va) / abs(va) if va else 0.0
            worsening = delta if spec["better"] == "lower" else -delta
            within = max(spread(a["workloads"][w]["rounds"][name]),
                         spread(b["workloads"][w]["rounds"][name]))
            if within > spec["bound"]:
                status = "unresolved"
                unresolved += 1
            elif worsening > spec["bound"]:
                status = "worse"
                worse += 1
            else:
                status = "ok"
            print(f"{w:20s} {name:16s} {va:12.6g} {vb:12.6g} {delta * 100:+7.2f}% "
                  f"{spec['bound'] * 100:5.1f}% {within * 100:6.2f}%  {status}")
    print(f"\n{worse} worse than the bound, {unresolved} unresolved")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.agree:
        return agree(args)
    if args.smoke:
        return smoke(args)
    return full_pass(args)


if __name__ == "__main__":
    sys.exit(main())
