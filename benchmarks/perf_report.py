"""Measure the hot-path performance layer; emit ``BENCH_perf.json`` and
``BENCH_timing.json``.

``BENCH_perf.json`` -- three experiments, one per PR-1 optimisation:

* ``recognition``  -- the width sweep from ``test_scaling.py``, timed
  with no memo and cold per-CCC path caches (``memo=False`` on a fresh
  extraction each call) and again warm-memoized, in interleaved
  (baseline, memoized) pairs; asserts >= 3x at width 16 between the
  fastest sample of each side.
* ``switchsim``    -- the domino-adder precharge/evaluate workload;
  compares the engine's net solves against the exhaustive oracle's
  (``tests.oracles.ExhaustiveSwitchSimulator``, which re-solves every
  net on each settle); asserts >= 2x fewer.
* ``battery``      -- the serial battery's wall time, and its sharded
  form: the registry split into 1, 2, 4 and 17 contiguous slices, each
  run serially and joined with ``merge_shard_batteries`` exactly as the
  fleet joins its shard jobs; asserts the merge equals the serial
  battery (findings, per-check slots and timing order, triage stats).

``BENCH_timing.json`` -- the incremental timing engine:

* ``elmore``       -- RC-ladder scaling: one pre-optimisation
  ``tests.oracles.reference_elmore_delay`` query vs the linear-pass
  ``elmore_all`` sweep of *every* node; asserts the full sweep beats a
  single legacy query >= 5x at 1000 sections (the honest lower bound --
  the legacy ``worst_elmore`` issued N such queries).
* ``sizing_loop``  -- the size -> re-verify loop over a multi-lane
  datapath, the full-rebuild oracle (``tests.oracles.
  reference_close_timing``) vs ``close_timing`` (load refresh + arc
  re-price + dirty-cone propagation); asserts >= 2x wall-clock and
  bit-identical reports.
* ``incremental_sta`` -- random arc re-pricings on the domino adder;
  asserts incremental arrival windows equal a from-scratch analyzer's.
* ``battery_timing`` -- the setup/race check inside the sharded
  battery; asserts the same identity with the check present.

Run directly::

    PYTHONPATH=src python benchmarks/perf_report.py

The JSON lands next to this file; keys are stable so CI can diff runs.
Both files carry the ``commit`` (``git describe --always --dirty``) and
the ``cpu_count`` of the run.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# The repo root, for the in-process shard merge in tests/sharding.py and
# the oracles in tests/oracles.py.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from repro.checks.driver import make_context                    # noqa: E402
from repro.checks.registry import run_battery                   # noqa: E402
from repro.designs.adders import domino_carry_adder             # noqa: E402
from repro.extraction.rctree import uniform_ladder              # noqa: E402
from repro.netlist.builder import CellBuilder                   # noqa: E402
from repro.netlist.flatten import flatten                       # noqa: E402
from repro.process.technology import strongarm_technology       # noqa: E402
from repro.recognition.memo import ClassificationMemo           # noqa: E402
from repro.recognition.recognizer import recognize              # noqa: E402
from repro.switchsim.engine import SwitchSimulator              # noqa: E402
from repro.timing.analyzer import TimingAnalyzer                # noqa: E402
from repro.timing.clocking import TwoPhaseClock                 # noqa: E402
from repro.timing.constraints import generate_constraints       # noqa: E402
from repro.timing.driver import analyze_design                  # noqa: E402
from repro.timing.sizing import close_timing                    # noqa: E402
from setup_report import current_commit                         # noqa: E402
from tests.oracles import (                                     # noqa: E402
    ExhaustiveSwitchSimulator,
    reference_close_timing,
    reference_elmore_delay,
)
from tests.sharding import sharded_battery                      # noqa: E402

WIDTHS = (2, 4, 8, 16)
REPEATS = 5
#: Interleaved (baseline, memoized) recognition samples per width.
#: Alternating the sides exposes both to the same host noise.  On a
#: 2-CPU host, eight best-of-5 blocks per side put the width-16 ratio
#: anywhere in 2.97-4.15x; eight runs of 20 interleaved pairs stayed
#: within 3.28-3.43x.
RECOGNITION_PAIRS = 40
#: Shard counts of the sharded-battery gates; 17 is one check per shard.
SHARD_COUNTS = (1, 2, 4, 17)


def _best(fn) -> float:
    """Best-of-N wall time: robust against scheduler noise."""
    return min(_once(fn) for _ in range(REPEATS))


def _once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_recognition() -> dict:
    flats = {w: flatten(domino_carry_adder(w)) for w in WIDTHS}
    rows = {}
    for w in WIDTHS:
        flat = flats[w]

        # Baseline: no memo, and fresh CCCs each call, so every
        # conduction-path cache starts cold.  Optimised: warm shared
        # memo (steady-state of a sweep/session).
        memo = ClassificationMemo()
        recognize(flat, memo=memo)  # warm
        base, warm = [], []
        for _ in range(RECOGNITION_PAIRS):
            base.append(_once(lambda: recognize(flat, memo=False)))
            warm.append(_once(lambda: recognize(flat, memo=memo)))
        base_s, warm_s = min(base), min(warm)

        rows[w] = {
            "transistors": flat.device_count(),
            "baseline_ms": base_s * 1e3,
            "memoized_ms": warm_s * 1e3,
            "speedup": base_s / warm_s,
        }
    return rows


def bench_switchsim(width: int = 8, cycles: int = 20) -> dict:
    """Domino precharge/evaluate cycling with changing operands.

    Runs the identical stimulus through the engine and its exhaustive
    oracle; both settle to the same states and history (asserted), the
    engine solving a fraction of the nets -- only fan-in-disturbed CCCs
    re-solve.
    """
    flat = flatten(domino_carry_adder(width))

    def run(engine: type[SwitchSimulator]) -> SwitchSimulator:
        import random

        sim = engine(flat)
        rng = random.Random(42)  # fixed seed: runs are comparable
        for cycle in range(cycles):
            a, b = rng.getrandbits(width), rng.getrandbits(width)
            drives = {"cin": cycle & 1}
            for i in range(width):
                drives[f"a{i}"] = (a >> i) & 1
                drives[f"b{i}"] = (b >> i) & 1
            # Phase-accurate domino cycle: each event settles on its
            # own, as on silicon -- which is where incremental solving
            # pays (a lone clock edge disturbs only the clocked CCCs).
            sim.step(clk=0)      # precharge
            sim.step(**drives)   # operands land mid-precharge
            sim.step(clk=1)      # evaluate
        return sim

    inc, full = run(SwitchSimulator), run(ExhaustiveSwitchSimulator)
    states = sorted(flat.nets)
    assert inc.values(states) == full.values(states)
    assert inc.history == full.history
    return {
        "transistors": flat.device_count(),
        "cycles": cycles,
        "net_solves": inc.counters["net_solves"],
        "exhaustive_net_solves": full.counters["net_solves"],
        "solve_reduction": full.counters["net_solves"]
        / max(inc.counters["net_solves"], 1),
        "ccc_evaluations": inc.counters["ccc_evaluations"],
        "exhaustive_ccc_evaluations": full.counters["ccc_evaluations"],
    }


def _sharded_identical(ctx, serial) -> bool:
    """True when every shard count's merge equals the serial battery."""
    for shards in SHARD_COUNTS:
        merged = sharded_battery(ctx, shards)
        if (merged.findings != serial.findings
                or merged.per_check != serial.per_check
                or list(merged.per_check_seconds)
                != list(serial.per_check_seconds)
                or merged.queues.stats() != serial.queues.stats()):
            return False
    return True


def bench_battery(width: int = 8) -> dict:
    ctx = make_context(flatten(domino_carry_adder(width)),
                       strongarm_technology(),
                       clock=TwoPhaseClock(period_s=6.25e-9))
    serial_s = _best(lambda: run_battery(ctx))
    serial = run_battery(ctx)
    return {
        "findings": len(serial.findings),
        "serial_ms": serial_s * 1e3,
        "shard_counts": list(SHARD_COUNTS),
        "identical_findings": _sharded_identical(ctx, serial),
        "per_check_seconds": serial.per_check_seconds,
    }


def bench_elmore(sections_list=(100, 300, 1000)) -> dict:
    """RC-ladder scaling: legacy per-query kernel vs the linear passes.

    The baseline is ONE ``reference_elmore_delay`` query at the far tap
    (the pre-optimisation kernel re-walked the subtree per path node);
    the optimised side is ``elmore_all`` computing EVERY node.  The
    legacy ``worst_elmore`` issued N baseline queries, so the reported
    speedup is a deep lower bound on the real sweep-vs-sweep ratio.
    """
    rows = {}
    for sections in sections_list:
        tree = uniform_ladder(sections, total_resistance=200.0 * sections,
                              total_cap=2e-15 * sections)
        far = f"n{sections}"
        base_s = _best(lambda: reference_elmore_delay(tree, far, 100.0))
        all_s = _best(lambda: [tree._invalidate(), tree.elmore_all(100.0)])
        # Identity of the kernels on the worst tap (float-exact).
        assert tree.elmore_all(100.0)[far] == tree.elmore_delay(far, 100.0)
        rows[sections] = {
            "reference_single_query_ms": base_s * 1e3,
            "elmore_all_full_sweep_ms": all_s * 1e3,
            "reference_full_sweep_est_ms": base_s * sections * 1e3,
            "speedup_single_query_vs_full_sweep": base_s / all_s,
        }
    return rows


def _sizing_workload(tech, lanes=32, stages=8, load_f=300e-15):
    ports = [f"a{k}" for k in range(lanes)] + [f"y{k}" for k in range(lanes)]
    b = CellBuilder("dp", ports=ports)
    for k in range(lanes):
        prev = f"a{k}"
        for i in range(stages):
            nxt = f"y{k}" if i == stages - 1 else f"l{k}s{i}"
            b.inverter(prev, nxt, wn=1.0, wp=2.5)
            prev = nxt
        b.cap(f"y{k}", "gnd", load_f)
    path = ["a0"] + [f"l0s{i}" for i in range(stages - 1)] + ["y0"]
    return flatten(b.build()), path


def bench_sizing_loop(iterations: int = 6) -> dict:
    """The size -> re-verify loop, full-rebuild oracle vs the live loop."""
    tech = strongarm_technology()
    clock = TwoPhaseClock(period_s=6.25e-9)
    loads = [300e-15 * (1.2 ** i) for i in range(iterations)]

    def run(loop):
        flat, path = _sizing_workload(tech)
        run_ = analyze_design(flat, tech, clock)
        start = time.perf_counter()
        closure = loop(run_, tech, path, loads)
        return time.perf_counter() - start, closure

    full_s, full = run(reference_close_timing)
    inc_s, inc = run(close_timing)
    identical = (
        sorted((n, w.t_min, w.t_max) for n, w in full.report.arrivals.items())
        == sorted((n, w.t_min, w.t_max) for n, w in inc.report.arrivals.items())
        and full.report.critical_paths == inc.report.critical_paths
        and full.report.races == inc.report.races
        and full.report.min_cycle_time_s == inc.report.min_cycle_time_s
    )
    return {
        "iterations": iterations,
        "full_ms": full_s * 1e3,
        "incremental_ms": inc_s * 1e3,
        "speedup": full_s / inc_s,
        "reports_identical": identical,
        "full_arcs_repriced": sum(i.arcs_repriced for i in full.iterations),
        "incremental_arcs_repriced": sum(i.arcs_repriced
                                         for i in inc.iterations),
    }


def bench_incremental_sta(width: int = 8, edits: int = 24) -> dict:
    """Random arc re-pricings: incremental windows vs a fresh analyzer."""
    import random

    tech = strongarm_technology()
    clock = TwoPhaseClock(period_s=6.25e-9)
    run = analyze_design(flatten(domino_carry_adder(width)), tech, clock,
                         clock_hints=("clk",))
    rng = random.Random(1997)
    arcs = run.analyzer.graph.arcs
    for _ in range(edits):
        arc = arcs[rng.randrange(len(arcs))]
        factor = rng.uniform(0.5, 2.0)
        run.analyzer.graph.reprice(arc, arc.d_min * factor,
                                   arc.d_max * factor)
    incremental = run.analyzer.verify(incremental=True)
    oracle = TimingAnalyzer(run.design, run.analyzer.graph, clock,
                            generate_constraints(run.design)).verify()
    identical = (
        sorted((n, w.t_min, w.t_max)
               for n, w in incremental.arrivals.items())
        == sorted((n, w.t_min, w.t_max) for n, w in oracle.arrivals.items())
        and incremental.critical_paths == oracle.critical_paths
        and incremental.min_cycle_time_s == oracle.min_cycle_time_s
    )
    counters = run.analyzer.counters()
    return {
        "arc_edits": edits,
        "identical_to_full": identical,
        "nets_in_graph": len(run.analyzer.graph.nets()),
        "nets_repropagated": counters["sta_nets_repropagated"],
        "full_propagations": counters["sta_full_propagations"],
        "incremental_propagations": counters["sta_incremental_propagations"],
    }


def bench_battery_timing(width: int = 4) -> dict:
    """Sharded battery identity with the setup/race check on board."""
    ctx = make_context(flatten(domino_carry_adder(width)),
                       strongarm_technology(),
                       clock=TwoPhaseClock(period_s=6.25e-9),
                       clock_hints=("clk",))
    serial = run_battery(ctx)
    return {
        "findings": len(serial.findings),
        "timing_findings": len(serial.of_check("timing_setup_race")),
        "shard_counts": list(SHARD_COUNTS),
        "identical_findings": _sharded_identical(ctx, serial),
        "timing_check_present": "timing_setup_race" in serial.per_check,
    }


def timing_report() -> dict:
    report = {
        "elmore": bench_elmore(),
        "sizing_loop": bench_sizing_loop(),
        "incremental_sta": bench_incremental_sta(),
        "battery_timing": bench_battery_timing(),
    }
    el1k = report["elmore"][1000]
    sz = report["sizing_loop"]
    report["acceptance"] = {
        "elmore_1k_speedup_ge_5x":
            el1k["speedup_single_query_vs_full_sweep"] >= 5.0,
        "sizing_incremental_ge_2x": sz["speedup"] >= 2.0,
        "sizing_reports_identical": sz["reports_identical"],
        "incremental_sta_identical":
            report["incremental_sta"]["identical_to_full"],
        "battery_sharded_identical_with_timing_check":
            report["battery_timing"]["identical_findings"]
            and report["battery_timing"]["timing_check_present"],
    }
    return report


def main() -> dict:
    stamp = {"commit": current_commit(), "cpu_count": os.cpu_count() or 1}
    report = {
        **stamp,
        "recognition": bench_recognition(),
        "switchsim": {w: bench_switchsim(w) for w in (4, 8, 16)},
        "battery": bench_battery(),
    }

    rec16 = report["recognition"][16]
    sw = report["switchsim"][8]
    ok = {
        "recognition_speedup_w16_ge_3x": rec16["speedup"] >= 3.0,
        "switchsim_solve_reduction_ge_2x": sw["solve_reduction"] >= 2.0,
        "battery_sharded_identical": report["battery"]["identical_findings"],
    }
    report["acceptance"] = ok

    out = os.path.join(os.path.dirname(__file__), "BENCH_perf.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)

    timing = {**stamp, **timing_report()}
    timing_out = os.path.join(os.path.dirname(__file__), "BENCH_timing.json")
    with open(timing_out, "w") as fh:
        json.dump(timing, fh, indent=2)

    print(f"recognition w16: {rec16['baseline_ms']:.2f} ms -> "
          f"{rec16['memoized_ms']:.2f} ms ({rec16['speedup']:.2f}x)")
    print(f"switchsim w8: {sw['exhaustive_net_solves']} exhaustive -> "
          f"{sw['net_solves']} solves ({sw['solve_reduction']:.2f}x fewer)")
    print(f"battery: serial {report['battery']['serial_ms']:.1f} ms, "
          f"sharded {SHARD_COUNTS} identical="
          f"{report['battery']['identical_findings']}")
    el1k = timing["elmore"][1000]
    sz = timing["sizing_loop"]
    print(f"elmore 1k-ladder: one legacy query "
          f"{el1k['reference_single_query_ms']:.2f} ms vs full sweep "
          f"{el1k['elmore_all_full_sweep_ms']:.2f} ms "
          f"({el1k['speedup_single_query_vs_full_sweep']:.0f}x)")
    print(f"sizing loop: full {sz['full_ms']:.1f} ms -> incremental "
          f"{sz['incremental_ms']:.1f} ms ({sz['speedup']:.2f}x), "
          f"identical={sz['reports_identical']}")
    print(f"incremental STA: {timing['incremental_sta']}")
    print(f"acceptance: {ok}")
    print(f"timing acceptance: {timing['acceptance']}")
    print(f"wrote {out}")
    print(f"wrote {timing_out}")
    if not all(ok.values()) or not all(timing["acceptance"].values()):
        raise SystemExit(1)
    return report


if __name__ == "__main__":
    main()
