"""Repeat benchmark runs and report how steady each metric is.

    python3 perfbench/steady.py --workload generic-reduce --runs 10
    python3 perfbench/steady.py --workload all --runs 5 --seed 100
    python3 perfbench/steady.py --workload dual-length --runs 2 --same-seed --trace 1

Each run is a fresh `run.py` process with its own seed (seed, seed+1, ...)
unless --same-seed is given.  For every metric the tool prints the median,
the quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median and
the bound from BENCHMARK.json; a spread below a third of the bound is
"steady".  With --trace 1 and --same-seed it also checks that the exact work
counts of the runs are identical.  The host is recorded alongside: nproc,
the Python version and PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    counts = next(
        (json.loads(ln.split("=", 1)[1]) for ln in lines if ln.startswith("exact_counts =")),
        None,
    )
    return result, counts


def _summary(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median:
        spread = (q3 - q1) / median
    else:
        spread = 0.0 if q3 == q1 else float("inf")
    if bound is None:
        verdict = ""
    elif spread <= bound / 3:
        verdict = "steady"
    elif spread <= bound:
        verdict = "within bound"
    else:
        verdict = "too wide"
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "verdict": verdict}


def main(argv=None):
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {names} or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary as JSON to this file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = names if args.workload == "all" else [args.workload]

    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "(unset)"),
    }
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_specs}
    report = {"host": host, "workloads": {}}
    ok = True
    for workload in workloads:
        values = {}
        counts = []
        seeds = [args.seed if args.same_seed else args.seed + k for k in range(args.runs)]
        for seed in seeds:
            result, exact = _run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            counts.append(exact)
        print(f"\n{workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, {args.seconds:g} s each")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        summaries = {}
        for name, vals in values.items():
            s = _summary(vals, bounds.get(name))
            summaries[name] = {**s, "values": vals}
            bound = "" if s["bound"] is None else f"{s['bound']:.2f}"
            print(f"  {name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.3f} {bound:>6s} {s['verdict']}")
        entry = {"seeds": seeds, "metrics": summaries}
        if args.trace and args.same_seed:
            same = all(c == counts[0] for c in counts)
            entry["exact_counts_identical"] = same
            print(f"  exact counts identical across runs: {same}")
            ok = ok and same
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
