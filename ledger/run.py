#!/usr/bin/env python3
"""The experiment ledger's command (README.md).

Run from the root of a checkout:

  python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Builds the library and the driver from source into
      ${CARGO_TARGET_DIR:-.bench_build}/ledger, runs one workload and prints
      its result as the last line of stdout.
  python3 ledger/run.py --selftest
      Checks the driver's span and percentile derivations on hand-built
      streams, and that the metrics it prints match BENCHMARK.json.
  python3 ledger/run.py --steady [--workload <name>|all] [--runs N]
                         [--first-seed K] [--seconds S]
      Runs workloads repeatedly and prints, for every end-to-end metric, the
      median, the quartiles and the spread against the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"


def fail(message):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "ledger"


def build():
    """Configures (once) and builds the driver; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    # The compiler's scratch files stay in the build directory too.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def load_spec():
    if not SPEC.is_file():
        fail(f"{SPEC} is missing")
    with open(SPEC) as f:
        return json.load(f)


def selftest(out):
    """Derivation self-test, then the driver's metrics against the spec."""
    ok = subprocess.run([str(out / "ledger_selftest")]).returncode == 0
    spec = load_spec()
    described = subprocess.run([str(out / "ledger_driver"), "--describe"],
                               capture_output=True, text=True, check=True).stdout
    printed = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in described.splitlines():
        section, *rest = line.split()
        printed[section].append(tuple(rest))
    expected = {
        "workload": [(w["name"],) for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    for section, want in expected.items():
        got = printed[section]
        if got != want:
            ok = False
            print(f"FAIL {section}: the driver prints {sorted(set(got) - set(want))} "
                  f"that BENCHMARK.json lacks, and lacks {sorted(set(want) - set(got))}")
    print("metric names and units: " + ("match BENCHMARK.json" if ok else "MISMATCH"))
    return 0 if ok else 1


def run_once(workload, seed, seconds, trace):
    """One run of the benchmark command in a child; returns its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def steady(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload in (None, "all") else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload}; choose from {names}")
    seconds = args.seconds or spec["run_seconds"]
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = run_once(workload, seed, seconds, 0)
            results.append(r)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()) +
                f" attempted={r['attempted']} failed={r['failed']} correct={r['correct']}",
                flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, failed share(s) {shares}, "
              f"correct in {sum(r['correct'] for r in results)}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            print(f"  {metric['name']:<12} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {metric['bound']:>6} {spread / metric['bound']:>12.2f}",
                  flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    if args.steady:
        build()
        return steady(args)
    out = build()
    if args.selftest:
        return selftest(out)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    return subprocess.run([str(out / "ledger_driver"), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
