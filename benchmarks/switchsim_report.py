"""Switch-level engine scaling benchmark: reference vs vector.

For each chip-scale workload (:func:`repro.designs.chip_scale` at ~1k,
5k, and 10k transistors) the script

* builds the packed solve tables once (timed separately -- a
  per-design one-time cost, not solve throughput) and hands that one
  build to both engines, timing each engine's construction over it on
  its own (the reference's includes stamping every CCC's path rows,
  which the vector engine then finds stamped);
* runs the *same* pseudo-random stimulus (deterministic LCG, clock
  toggling plus sparse data-port activity) through the reference
  engine and the vector engine, timing only the drive/settle loop;
* verifies the two engines produced **bit-identical** Logic histories
  -- any divergence fails the build regardless of speed;
* records events/sec and wall-clock per engine per scale into
  ``benchmarks/BENCH_switchsim.json``, merged by scale: a run replaces
  only the rows of the scales it ran, and stamps each with the commit
  (``git describe --always --dirty``), ``cpu_count`` and step count it
  was measured at;
* asserts the vector engine clears ``FLOOR`` (10x) at the 10k scale
  when it runs -- waived (with the reason recorded in the JSON) only on
  hosts with fewer than 2 CPUs, where BLAS-threaded numpy has no room
  to stretch.

Usage::

    PYTHONPATH=src python benchmarks/switchsim_report.py             # full curve
    PYTHONPATH=src python benchmarks/switchsim_report.py --scales 1k # CI quick
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.designs import chip_scale
from repro.netlist.flatten import flatten
from repro.switchsim import SwitchSimulator, VectorSwitchSimulator
from repro.switchsim.tables import PackedSwitchTables
from setup_report import current_commit

OUT_JSON = pathlib.Path(__file__).parent / "BENCH_switchsim.json"

SCALES = {"1k": 1000, "5k": 5000, "10k": 10000}
FLOOR = 10.0          # vector speedup floor at the largest scale run
FLOOR_SCALE = "10k"   # the floor only binds when this scale is included
FLOOR_MIN_CPUS = 2
SEED = 12345
STEPS = 10


def make_stimulus(cs, steps: int) -> list[list[tuple[str, int]]]:
    """Deterministic per-step drive lists, shared by both engines.

    Step 0 grounds every stimulus port; later steps toggle the clock
    and flip a sparse pseudo-random subset of the data ports.
    """
    state = SEED

    def lcg() -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return state

    plan = [[(p, 0) for p in cs.stimulus_ports]]
    for step in range(1, steps):
        drives = [(cs.clock_port, step % 2)]
        for port in cs.stimulus_ports:
            if port != cs.clock_port and lcg() % 3 == 0:
                drives.append((port, lcg() % 2))
        plan.append(drives)
    return plan


def run_engine(sim, plan) -> tuple[float, int]:
    """(wall seconds, settle events) for one engine over the plan."""
    t0 = time.perf_counter()
    events = 0
    for drives in plan:
        for net, value in drives:
            sim.drive(net, value)
        events += sim.settle(max_events=5_000_000)
    return time.perf_counter() - t0, events


def bench_scale(label: str, target: int, steps: int) -> dict:
    cs = chip_scale(target)
    flat = flatten(cs.cell)
    plan = make_stimulus(cs, steps)
    print(f"[{label}] {len(flat.transistors)} transistors, "
          f"{len(flat.nets)} nets")

    t0 = time.perf_counter()
    tables = PackedSwitchTables.build(flat)
    build_s = time.perf_counter() - t0
    print(f"[{label}] packed tables built in {build_s:.1f}s")

    t0 = time.perf_counter()
    ref = SwitchSimulator(flat, tables=tables)
    ref_init = time.perf_counter() - t0
    ref_wall, ref_events = run_engine(ref, plan)
    print(f"[{label}] reference: built in {ref_init:.2f}s, "
          f"{ref_wall:.2f}s, {ref_events} events")

    t0 = time.perf_counter()
    vec = VectorSwitchSimulator(flat, tables=tables)
    vec_init = time.perf_counter() - t0
    vec_wall, vec_events = run_engine(vec, plan)
    print(f"[{label}] vector:    built in {vec_init:.2f}s, "
          f"{vec_wall:.2f}s, {vec_events} events")

    equivalent = ref.history == vec.history
    speedup = ref_wall / max(vec_wall, 1e-9)
    print(f"[{label}] speedup {speedup:.1f}x, "
          f"{'bit-identical' if equivalent else 'DIVERGED'}")
    return {
        "transistors": len(flat.transistors),
        "nets": len(flat.nets),
        "build_tables_s": round(build_s, 4),
        "reference": {
            "construct_s": round(ref_init, 4),
            "wall_s": round(ref_wall, 4),
            "events": ref_events,
            "events_per_s": round(ref_events / max(ref_wall, 1e-9), 1),
        },
        "vector": {
            "construct_s": round(vec_init, 4),
            "wall_s": round(vec_wall, 4),
            "events": vec_events,
            "events_per_s": round(vec_events / max(vec_wall, 1e-9), 1),
            "solve_count": vec.counters["solve_count"],
            "skip_count": vec.counters["skip_count"],
            "vector_passes": vec.counters["vector_passes"],
            "vector_wasted_evals": vec.counters["vector_wasted_evals"],
            "reach_solves": vec.counters["reach_solves"],
            "row_solves": vec.counters["row_solves"],
        },
        "speedup": round(speedup, 3),
        "equivalent": equivalent,
    }


def merge_payload(results: dict) -> dict:
    """The committed payload with ``results`` replacing its rows by
    scale; rows of scales not run this time are kept as they were."""
    payload = {}
    if OUT_JSON.exists():
        payload = json.loads(OUT_JSON.read_text(encoding="utf-8"))
    # Per row since rows are merged.
    for key in ("cpu_count", "steps"):
        payload.pop(key, None)
    payload.setdefault("scales", {}).update(results)
    payload.update(seed=SEED, speedup_floor=FLOOR, floor_scale=FLOOR_SCALE)
    payload.setdefault("floor_enforced", False)
    payload.setdefault("floor_waived", False)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", default=",".join(SCALES),
        help="comma-separated subset of %s (default: all)" % list(SCALES))
    parser.add_argument("--steps", type=int, default=STEPS)
    args = parser.parse_args(argv)
    labels = [s.strip() for s in args.scales.split(",") if s.strip()]
    unknown = [s for s in labels if s not in SCALES]
    if unknown:
        parser.error(f"unknown scale(s) {unknown}; choose from {list(SCALES)}")

    cpus = os.cpu_count() or 1
    commit = current_commit()
    print(f"switchsim bench: scales {labels}, {args.steps} steps, "
          f"{cpus} CPU(s), commit {commit}")
    results = {}
    for label in labels:
        results[label] = bench_scale(label, SCALES[label], args.steps)
        results[label].update(commit=commit, cpu_count=cpus,
                              steps=args.steps)

    floor_binds = FLOOR_SCALE in labels
    floor_enforced = floor_binds and cpus >= FLOOR_MIN_CPUS
    floor_waived = floor_binds and not floor_enforced
    payload = merge_payload(results)
    if floor_binds:
        # The floor fields describe the row at FLOOR_SCALE, so only a
        # run that re-measured that row rewrites them.
        payload.update(floor_enforced=floor_enforced,
                       floor_waived=floor_waived)
        payload.pop("floor_waived_reason", None)
        if floor_waived:
            payload["floor_waived_reason"] = (
                f"host has {cpus} CPU(s); the vectorized-solve floor is "
                f"only meaningful with >= {FLOOR_MIN_CPUS}")
    OUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {OUT_JSON.name} (rows {sorted(payload['scales'])})")

    diverged = [label for label, r in results.items() if not r["equivalent"]]
    if diverged:
        print(f"\nFAIL: vector engine diverged from reference at "
              f"{diverged}", file=sys.stderr)
        return 1
    if floor_enforced:
        speedup = results[FLOOR_SCALE]["speedup"]
        if speedup < FLOOR:
            print(f"\nFAIL: vector speedup {speedup:.2f}x at {FLOOR_SCALE} "
                  f"is below the {FLOOR}x floor", file=sys.stderr)
            return 1
        print(f"floor cleared: {speedup:.2f}x >= {FLOOR}x at {FLOOR_SCALE}")
    elif floor_waived:
        print(f"floor waived: {payload['floor_waived_reason']}")
    else:
        print(f"floor not asserted: {FLOOR_SCALE!r} not in scales run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
