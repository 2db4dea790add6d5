#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage::

    python3 perfbench/run.py --workload chip_cold_1k --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (and the tracing overhead).  A
human-readable summary goes to standard error, and the full record of
the run, spans included, to ``.perfbench/results/``.  The exit code is
non-zero when any request failed, any output was wrong, or the run did
different work from the committed reference (``perfbench/reference.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("chip_cold_1k", "chip_front_3k", "service_closed")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_probe(workload: str, seed: int, work: Path) -> float:
    """Reference seconds from the first repro import until the workload is ready.

    Ready means the design is built (chip workloads), or the service is
    listening with its worker forked and one warm-up campaign sealed.
    The loop timings that scale host seconds to reference seconds are
    taken before the imports and after the service has stopped, when no
    other process of the run computes.
    """
    from perfbench import hostspeed
    before = hostspeed.speed()
    start = time.perf_counter()
    from perfbench import designs, workloads  # the first repro import
    if workload == "service_closed":
        session = workloads.ServiceSession(work / "probe-store")
        session.start()
        host_s = time.perf_counter() - start
        session.stop()
    else:
        spec = workloads.CHIP[workload]
        designs.chip_bundle(spec.target, seed, spec.use_layout)
        host_s = time.perf_counter() - start
    return hostspeed.reference_seconds(host_s, before + hostspeed.speed())


def trace_problems(outcome, reference: dict, names) -> list[str]:
    """Every per-layer metric fired where expected and stayed 0 elsewhere."""
    problems = []
    zero = set(reference["zero"])
    for name in names:
        if name == "trace.overhead_s":
            continue
        value = outcome.layer.get(name, 0.0)
        if name in zero and value != 0:
            problems.append(f"trace: {name} = {value:g}, expected 0")
        elif name not in zero and value == 0:
            problems.append(f"trace: {name} is 0, expected work")
    for name, want in reference.get("traced_counters", {}).items():
        if outcome.layer.get(name) != want:
            problems.append(f"trace: {name} = {outcome.layer.get(name)}, "
                            f"reference {want}")
    return problems


def run(args, work: Path) -> int:
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    from perfbench import workloads
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "service_closed":
        outcome = workloads.run_service(args.seed, args.seconds,
                                        bool(args.trace), reference,
                                        Path(__file__), work)
    else:
        outcome = workloads.run_chip(args.workload, args.seed, args.seconds,
                                     bool(args.trace), reference,
                                     Path(__file__))
    if args.trace and not outcome.failed:
        problems = trace_problems(outcome, reference, units)
        outcome.problems.extend(problems)
        if problems:
            outcome.failed = outcome.attempted
    values = outcome.layer if args.trace else outcome.metrics
    correct = not outcome.problems and outcome.failed == 0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    if len(metrics) != len(units):
        correct = False
        outcome.problems.append("metrics missing: "
                                + ", ".join(sorted(set(units) - set(metrics))))
    error_rate = outcome.failed / max(outcome.attempted, 1)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "error_rate": error_rate,
              "metrics": metrics, "counters": outcome.counters,
              "problems": outcome.problems, "notes": outcome.notes,
              "spans": outcome.spans}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_file = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(record), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {outcome.attempted} requests, "
          f"{outcome.failed} failed, error_rate {error_rate:g}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"  exact counters: {json.dumps(outcome.counters, sort_keys=True)}",
          file=sys.stderr)
    if "samples" in outcome.notes:
        print(f"  latency samples: {outcome.notes['samples']}, "
              f"{outcome.notes['samples_beyond_p90']} beyond p90",
              file=sys.stderr)
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}", file=sys.stderr)
    print(f"  record: {out_file.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} is missing; the benchmark measures "
              f"the repro package beside it", file=sys.stderr)
        return 2
    # Everything the run writes, temporary files included, stays in the
    # checkout under .perfbench/.
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed, work))
            return 0
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
