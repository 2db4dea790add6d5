"""Setup-path scaling benchmark: table build, recognition, STA graph.

PR 6 made the *solves* scale; this report tracks whether the *setup*
path (everything that runs before the first solve) keeps up.  For each
chip-scale workload (:func:`repro.designs.chip_scale` at ~1k through
~50k transistors) the script measures

* **cold table build** through the shared :class:`DesignCache` -- the
  target-rooted path sweeps and the name-free CCC template cache, with
  no conduction path unrolled -- with the process's peak RSS read right
  after it (``build.peak_rss_mb``);
* **warm-cache re-build** (identity hit), and a short **vector-engine
  smoke** on the built tables, which stamps only the CCCs whose solves
  reach leaves open (``build.smoke_stamped_paths``).  Its random LCG
  drives make every bus CCC fight, so it stamps nearly every path: the
  engine's worst case;
* a **perfbench-stimulus smoke** (``vectors``): the vector engine on
  fresh tables under ``perfbench/designs.py``'s ``chip_vectors`` --
  the stimulus ``chip_front_3k`` and the chip campaigns drive, where
  the buses never fight -- with its settle time and stamped paths;
* **recognition**, which answers its questions from packed path sets
  over the sweeps the build left on the CCCs, with the process's
  ``VmRSS`` rise across it (``recognition_rss_mb``, measured after
  :func:`release_free_memory` hands the freed tables' pages back, so
  it counts what recognition keeps), and **STA
  timing-graph construction**, which prices each source pair's paths
  straight from the sweep records;
* **legacy STA graph** -- :func:`tests.oracles.reference_timing_graph`,
  which materializes every pair as path objects
  (:func:`tests.oracles.materialize`),
  priced by :class:`tests.oracles.OracleDelayCalculator` with one model
  evaluation per device of every path of every arc, with the arc-price
  cache on as production runs it -- at 1k and 5k, asserting
  **bit-identical** arcs and notes;
* last, at the scales where the per-instance, per-pair oracle in
  ``tests/oracles.py`` is still affordable, the **full table build**
  like for like -- a fresh build plus stamping every CCC
  (``build.full_s``) -- and the **legacy table build** on fresh CCCs,
  back to back, asserting the two produce **byte-identical** packed
  arrays; any divergence fails the build regardless of speed.  They
  run after recognition and STA so that their high-water mark (the
  oracle's, about 2.2 GB at 10k) cannot slow the timings before them.

Results are merged into ``benchmarks/BENCH_setup.json`` by scale: a run
replaces only the rows of the scales it ran, and stamps each with the
commit (``git describe --always --dirty``) and ``cpu_count`` it was
measured at.  The builder must clear ``FLOOR`` (10x over the oracle) at
the 10k scale -- waived (with the reason recorded in the JSON) only on
hosts with fewer than 2 CPUs, matching the switchsim report's
convention.

Usage::

    PYTHONPATH=src python benchmarks/setup_report.py                # full curve
    PYTHONPATH=src python benchmarks/setup_report.py --scales 1k,5k # CI quick
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import time

# The oracle lives with the tests, outside the package.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.designs import chip_scale                            # noqa: E402
from repro.extraction.annotate import annotate                  # noqa: E402
from repro.netlist.flatten import flatten                       # noqa: E402
from repro.perf.cache import DesignCache                        # noqa: E402
from repro.process.corners import Corner                        # noqa: E402
from repro.process.technology import strongarm_technology       # noqa: E402
from repro.recognition import conduction                        # noqa: E402
from repro.switchsim import VectorSwitchSimulator               # noqa: E402
from repro.timing.arccache import ArcPriceCache                 # noqa: E402
from repro.timing.delay import ArcDelayCalculator               # noqa: E402
from repro.timing.graph import build_timing_graph               # noqa: E402
from repro.switchsim.tables import PackedSwitchTables           # noqa: E402
from perfbench.designs import chip_vectors                      # noqa: E402
from tests.oracles import (                                      # noqa: E402
    OracleDelayCalculator,
    arc_rows,
    direct_tables,
    reference_timing_graph,
    table_mismatches,
)

OUT_JSON = pathlib.Path(__file__).parent / "BENCH_setup.json"

SCALES = {"1k": 1000, "5k": 5000, "10k": 10000,
          "25k": 25000, "50k": 50000}
#: Scales where the oracle (per-pair DFS, no templates) still finishes
#: in minutes; beyond 10k only the production builder is timed.
LEGACY_SCALES = frozenset({"1k", "5k", "10k"})
#: Scales where the STA oracle runs (about 200 s at 5k on 2 CPUs).
STA_LEGACY_SCALES = frozenset({"1k", "5k"})
FLOOR = 10.0          # new-vs-legacy build speedup floor
FLOOR_SCALE = "10k"   # the floor only binds when this scale is included
FLOOR_MIN_CPUS = 2
SEED = 12345
SMOKE_STEPS = 4


def legacy_build(target: int) -> tuple[dict, float]:
    """(oracle arrays, seconds) for ``chip_scale(target)``.

    A fresh flatten gives fresh CCCs, so nothing leaks in from the
    sweep-warmed caches of the production build.
    """
    flat = flatten(chip_scale(target).cell)
    t0 = time.perf_counter()
    arrays = direct_tables(flat)
    return arrays, time.perf_counter() - t0


def make_smoke_plan(cs, steps: int) -> list[list[tuple[str, int]]]:
    """Deterministic sparse stimulus (same LCG as the switchsim bench)."""
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


def _status_mb(field: str) -> float | None:
    """``field`` of ``/proc/self/status`` in MB, or None without it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def release_free_memory() -> None:
    """Collect garbage and hand the C heap's free pages back to the OS
    (glibc ``malloc_trim``), so that a VmRSS rise measured after this
    counts new memory rather than reuse of memory freed before it.  Only
    the collection runs where there is no glibc."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def high_water_mb() -> float:
    """This process's peak resident set so far, in MB (``VmHWM``).

    Falls back to ``ru_maxrss`` where ``/proc`` has no status file.
    """
    peak = _status_mb("VmHWM")
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return peak


def current_commit(checkout: pathlib.Path | None = None) -> str:
    """``git describe --always --dirty`` of ``checkout`` (default: this
    one), or "unknown"."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=checkout or pathlib.Path(__file__).resolve().parent,
            check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def full_build(target: int) -> tuple[PackedSwitchTables, float, float]:
    """(tables, build s, stamp s) for ``chip_scale(target)``: a cold
    build on fresh CCCs, then every CCC stamped -- the same arrays the
    oracle lays out, like for like."""
    flat = flatten(chip_scale(target).cell)
    tables = PackedSwitchTables.build(flat)
    t0 = time.perf_counter()
    tables.stamp(range(len(tables.cccs)))
    return tables, tables.build_wall_s, time.perf_counter() - t0


def bench_scale(label: str, target: int, check_legacy: bool,
                check_sta_legacy: bool) -> dict:
    cs = chip_scale(target)
    flat = flatten(cs.cell)
    tech = strongarm_technology()
    cache = DesignCache()
    print(f"[{label}] {len(flat.transistors)} transistors, "
          f"{len(flat.nets)} nets")

    enum_before = dict(conduction.enumeration_counters())
    t0 = time.perf_counter()
    tables = cache.switch_tables(flat)
    cold_total_s = time.perf_counter() - t0
    build_peak_mb = high_water_mb()
    build_s = tables.build_wall_s  # pure build; cold_total adds
    enum_after = conduction.enumeration_counters()
    print(f"[{label}] cold build {build_s:.2f}s "
          f"({cold_total_s:.2f}s with fingerprint; "
          f"rows={tables.n_rows}, "
          f"template hits={tables.template_hits}), "
          f"peak RSS {build_peak_mb:.0f} MB")

    # Warm path: an identity hit in the same cache.
    t0 = time.perf_counter()
    again = cache.switch_tables(flat)
    warm_hit_s = time.perf_counter() - t0
    assert again is tables, "warm switch_tables must be an identity hit"

    sim = VectorSwitchSimulator(flat, tables=tables)
    plan = make_smoke_plan(cs, SMOKE_STEPS)
    t0 = time.perf_counter()
    events = 0
    for drives in plan:
        for net, value in drives:
            sim.drive(net, value)
        events += sim.settle(max_events=5_000_000)
    smoke_s = time.perf_counter() - t0
    print(f"[{label}] vector smoke {smoke_s:.2f}s, {events} events, "
          f"{tables.stamped_paths} paths stamped")

    # Recognition and STA never read the packed tables; releasing them
    # keeps the largest scales inside host memory.
    counts = tables.counters()
    table_counts = {"rows": counts["packed_rows"],
                    "paths": counts["packed_paths"],
                    "conditions": counts["packed_conditions"],
                    "template_hits": counts["packed_template_hits"],
                    "smoke_stamped_paths": tables.stamped_paths}
    del tables, again, sim
    cache._switch_tables.clear()

    # perfbench's stimulus on fresh tables over the same CCCs.
    tables = cache.switch_tables(flat)
    sim = VectorSwitchSimulator(flat, tables=tables, record_history=False)
    steps = chip_vectors(cs, random.Random(0))
    t0 = time.perf_counter()
    vec_events = 0
    for drives in steps:
        for net in sorted(drives):
            sim.drive(net, drives[net])
        vec_events += sim.settle(max_events=5_000_000)
    vectors = {"steps": len(steps), "events": vec_events,
               "settle_s": round(time.perf_counter() - t0, 4),
               "stamped_paths": tables.stamped_paths,
               "reach_solves": sim.counters["reach_solves"],
               "row_solves": sim.counters["row_solves"]}
    print(f"[{label}] chip_vectors smoke {vectors['settle_s']:.2f}s, "
          f"{vec_events} events, {tables.stamped_paths} paths stamped")
    del tables, sim
    cache._switch_tables.clear()

    release_free_memory()
    rss_before = _status_mb("VmRSS")
    t0 = time.perf_counter()
    design = cache.recognized(flat)
    recognition_s = time.perf_counter() - t0
    rss_after = _status_mb("VmRSS")
    recognition_rss_mb = (round(rss_after - rss_before, 1)
                          if rss_before is not None else None)
    n_cccs = len(design.classifications)
    print(f"[{label}] recognition {recognition_s:.2f}s ({n_cccs} CCCs), "
          f"VmRSS +{recognition_rss_mb} MB")

    parasitics = cache.parasitics(flat, tech)
    fast = annotate(flat, parasitics, tech, Corner.FAST)
    slow = annotate(flat, parasitics, tech, Corner.SLOW)
    t0 = time.perf_counter()
    # Arc-price cache on, as the production driver runs it: the N
    # stamped copies of a bit-slice price their arcs once.
    graph = build_timing_graph(design, ArcDelayCalculator(fast, slow),
                               arc_cache=ArcPriceCache())
    sta_graph_s = time.perf_counter() - t0
    sta_arcs = len(graph.arcs)
    print(f"[{label}] STA graph {sta_graph_s:.2f}s ({sta_arcs} arcs)")

    sta_legacy = None
    if check_sta_legacy:
        t0 = time.perf_counter()
        oracle = reference_timing_graph(
            design, OracleDelayCalculator(fast, slow),
            arc_cache=ArcPriceCache())
        sta_legacy_s = time.perf_counter() - t0
        identical = (arc_rows(graph) == arc_rows(oracle)
                     and graph.notes == oracle.notes)
        speedup = sta_legacy_s / max(sta_graph_s, 1e-9)
        print(f"[{label}] legacy STA graph {sta_legacy_s:.2f}s -> "
              f"{speedup:.1f}x, "
              f"{'bit-identical' if identical else 'DIVERGED'}")
        sta_legacy = {"sta_legacy_s": round(sta_legacy_s, 4),
                      "speedup": round(speedup, 3),
                      "bit_identical": identical}
        del oracle

    # Like for like, last: the full build (every CCC stamped) and the
    # legacy baseline back to back, so the two sides of the floor ratio
    # see the same host conditions.
    legacy = None
    full = {}
    if check_legacy:
        del design, graph, parasitics, fast, slow
        cache = None
        tables, full_build_s, stamp_s = full_build(target)
        full = {"full_s": round(full_build_s + stamp_s, 4),
                "full_stamp_s": round(stamp_s, 4)}
        old, legacy_s = legacy_build(target)
        mismatches = table_mismatches(tables, old)
        del old, tables
        identical = not mismatches
        speedup = legacy_s / max(full_build_s + stamp_s, 1e-9)
        print(f"[{label}] full build {full_build_s + stamp_s:.2f}s "
              f"({stamp_s:.2f}s stamping); legacy build {legacy_s:.2f}s "
              f"-> {speedup:.1f}x, "
              f"{'byte-identical' if identical else f'DIVERGED {mismatches}'}")
        legacy = {"build_s": round(legacy_s, 4),
                  "speedup": round(speedup, 3),
                  "byte_identical": identical}

    return {
        "transistors": len(flat.transistors),
        "nets": len(flat.nets),
        "cccs": n_cccs,
        "build": {
            "new_s": round(build_s, 4),
            "cold_total_s": round(cold_total_s, 4),
            **table_counts,
            **full,
            "target_sweeps": int(enum_after["target_sweeps"]
                                 - enum_before.get("target_sweeps", 0)),
            # The high-water mark right after the cold build; it covers
            # the scales run before this one in the same invocation.
            "peak_rss_mb": round(build_peak_mb, 1),
        },
        "legacy": legacy,
        "recognition_s": round(recognition_s, 4),
        "recognition_rss_mb": recognition_rss_mb,
        "sta_graph_s": round(sta_graph_s, 4),
        "sta_arcs": sta_arcs,
        "sta_legacy": sta_legacy,
        "warm": {"cache_hit_s": round(warm_hit_s, 6)},
        "smoke": {"steps": SMOKE_STEPS, "events": events,
                  "wall_s": round(smoke_s, 4)},
        "vectors": vectors,
        # Process-wide high-water mark, so it covers the scales run
        # before this one in the same invocation.
        "peak_rss_mb": round(high_water_mb(), 1),
    }


def merge_payload(results: dict) -> dict:
    """The committed payload with ``results`` replacing its rows by
    scale; rows of scales not run this time are kept as they were."""
    payload = {}
    if OUT_JSON.exists():
        payload = json.loads(OUT_JSON.read_text(encoding="utf-8"))
    payload.pop("cpu_count", None)  # per row since rows are merged
    payload.setdefault("scales", {}).update(results)
    payload.update(seed=SEED, build_speedup_floor=FLOOR,
                   floor_scale=FLOOR_SCALE)
    payload.setdefault("floor_enforced", False)
    payload.setdefault("floor_waived", False)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", default=",".join(SCALES),
        help="comma-separated subset of %s (default: all)" % list(SCALES))
    args = parser.parse_args(argv)
    labels = [s.strip() for s in args.scales.split(",") if s.strip()]
    unknown = [s for s in labels if s not in SCALES]
    if unknown:
        parser.error(f"unknown scale(s) {unknown}; choose from {list(SCALES)}")

    cpus = os.cpu_count() or 1
    commit = current_commit()
    print(f"setup bench: scales {labels}, {cpus} CPU(s), commit {commit}")

    results = {}
    for label in labels:
        results[label] = bench_scale(
            label, SCALES[label], check_legacy=label in LEGACY_SCALES,
            check_sta_legacy=label in STA_LEGACY_SCALES)
        results[label].update(commit=commit, cpu_count=cpus)

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
                f"host has {cpus} CPU(s); the build-speedup floor is only "
                f"meaningful with >= {FLOOR_MIN_CPUS}")
    OUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {OUT_JSON.name} (rows {sorted(payload['scales'])})")

    diverged = [label for label, r in results.items()
                if r["legacy"] is not None
                and not r["legacy"]["byte_identical"]]
    if diverged:
        print(f"\nFAIL: packed tables diverged at {diverged}",
              file=sys.stderr)
        return 1
    sta_diverged = [label for label, r in results.items()
                    if r["sta_legacy"] is not None
                    and not r["sta_legacy"]["bit_identical"]]
    if sta_diverged:
        print(f"\nFAIL: STA arcs diverged from the oracle at {sta_diverged}",
              file=sys.stderr)
        return 1
    if floor_enforced:
        speedup = results[FLOOR_SCALE]["legacy"]["speedup"]
        if speedup < FLOOR:
            print(f"\nFAIL: build speedup {speedup:.2f}x at {FLOOR_SCALE} "
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
