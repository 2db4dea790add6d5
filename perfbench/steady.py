#!/usr/bin/env python3
"""Check the benchmark's steadiness: many seeds, one table per workload.

Usage::

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads chip_cold_1k,...]

Runs ``run.py`` once per seed and workload, one run at a time, and
prints every end-to-end metric (with ``error_rate``) as median and
quartiles, plus the spread -- the distance between the first and third
quartile as a share of the median -- against the metric's bound in
``BENCHMARK.json``.  It also requires every exact work counter to be
identical across all runs.  With ``--sets 2`` it repeats the runs on
fresh seeds and compares the two medians as well.  Exits non-zero when
a run fails, a spread exceeds its bound, the two medians differ (in
either direction) by more than the bound, or a counter differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    record_path = ROOT / ".perfbench" / "results" / f"{workload}-s{seed}-t0.json"
    record = (json.loads(record_path.read_text())
              if record_path.is_file() else {})
    result["exit"] = proc.returncode
    result["counters"] = record.get("counters", {})
    result["problems"] = record.get("problems", [proc.stderr[-400:]])
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in bench["end_to_end"]}
    ok = True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                result = run_once(workload, seed, args.seconds)
                seed += 1
                runs.append(result)
                status = "ok" if result.get("correct") and result["exit"] == 0 else "FAILED"
                print(f"{workload} seed {seed - 1}: {status}", file=sys.stderr)
                if status != "ok":
                    ok = False
                    for problem in result["problems"][:5]:
                        print(f"  {problem}", file=sys.stderr)
            sets.append(runs)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"--seconds {args.seconds}")
        print(f"  {'metric':16s} {'unit':5s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
        first_medians = {}
        for index, runs in enumerate(sets):
            good = [r for r in runs if r.get("correct")]
            failed = sum(r.get("failed", 0) for r in runs)
            attempted = sum(r.get("attempted", 0) for r in runs)
            print(f"  set {index + 1}:")
            print(f"  {'error_rate':16s} {'share':5s} "
                  f"{failed / max(attempted, 1):11.5g}   "
                  f"({failed} failed of {attempted} requests)")
            for name, (unit, bound) in bounds.items():
                values = [r["metrics"][name]["value"] for r in good
                          if name in r.get("metrics", {})]
                if len(values) < 2:
                    print(f"  {name:16s} too few good runs")
                    ok = False
                    continue
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = quartile_spread(values)
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD ABOVE BOUND", False
                elif spread > bound / 3:
                    flag = " (above a third of the bound)"
                if index == 1:
                    base = first_medians[name]
                    change = (median - base) / base
                    flag += f" second median {change:+.1%} vs first"
                    if abs(change) > bound:
                        flag, ok = flag + " MEDIANS DIFFER BY MORE THAN BOUND", False
                first_medians.setdefault(name, median)
                print(f"  {name:16s} {unit:5s} {median:11.5g} {q1:11.5g} "
                      f"{q3:11.5g} {spread:7.2%} {bound:6.2f}{flag}")
        counters = {json.dumps(r["counters"], sort_keys=True)
                    for runs in sets for r in runs}
        if len(counters) == 1:
            print(f"  exact counters identical in every run: {counters.pop()}")
        else:
            ok = False
            print("  EXACT COUNTERS DIFFER:")
            for c in sorted(counters):
                print(f"    {c}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
