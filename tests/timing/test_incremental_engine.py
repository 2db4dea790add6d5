"""Unit tests for the incremental timing engine plumbing.

Covers the pieces the property suite exercises only end-to-end: the
arc-price cache, incremental load refresh, arc re-pricing after a
resize, the sizing loop against its full-rebuild oracle, and the
battery's setup/race check.
"""

import pytest

from repro.checks.base import CheckContext, Severity
from repro.checks.driver import make_context
from repro.checks.registry import run_battery
from repro.checks.timing_sta import SetupRaceCheck
from repro.designs.adders import domino_carry_adder, ripple_carry_adder
from repro.extraction.annotate import annotate, update_net_loads
from repro.extraction.wireload import WireloadModel
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.process.corners import Corner
from repro.process.technology import strongarm_technology
from repro.timing.arccache import ArcPriceCache
from repro.timing.clocking import TwoPhaseClock
from repro.timing.driver import analyze_design
from repro.timing.graph import reprice_arcs
from repro.timing.sizing import close_timing
from tests.oracles import reference_close_timing
from tests.sharding import sharded_battery


@pytest.fixture(scope="module")
def tech():
    return strongarm_technology()


CLOCK = TwoPhaseClock(period_s=6.25e-9, non_overlap_s=0.1e-9)


def chain_flat(lanes=4, stages=5, load_f=250e-15):
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


# -- arc-price cache ----------------------------------------------------------


def test_arc_cache_hits_on_repeated_slices(tech):
    flat = flatten(domino_carry_adder(8))
    cache = ArcPriceCache()
    cached = analyze_design(flat, tech, CLOCK, clock_hints=("clk",),
                            arc_cache=cache)
    assert cache.hits > cache.misses  # 8 identical slices: mostly hits

    fresh = analyze_design(flatten(domino_carry_adder(8)), tech, CLOCK,
                           clock_hints=("clk",))
    priced = {(a.src, a.dst, a.kind): (a.d_min, a.d_max)
              for a in cached.analyzer.graph.arcs}
    for arc in fresh.analyzer.graph.arcs:
        assert priced[(arc.src, arc.dst, arc.kind)] == (arc.d_min, arc.d_max)


def test_arc_cache_counters_shape():
    cache = ArcPriceCache()
    assert cache.drive_bounds(("k",), lambda: (1.0, 2.0)) == (1.0, 2.0)
    assert cache.drive_bounds(("k",), lambda: (9.0, 9.0)) == (1.0, 2.0)
    assert cache.counters() == {"arc_cache_hits": 1, "arc_cache_misses": 1,
                                "arc_cache_entries": 1}


# -- incremental load refresh -------------------------------------------------


def test_update_net_loads_matches_full_annotate(tech):
    flat, _ = chain_flat()
    parasitics = WireloadModel().extract(flat, tech.wires)
    live = annotate(flat, parasitics, tech, Corner.SLOW)

    resized = [t for t in flat.transistors if t.gate == "l0s1"]
    for t in resized:
        t.w_um *= 3.0
    flat.rebuild_connectivity()
    touched = {net for t in resized for net in (t.gate, t.drain, t.source)}
    update_net_loads(live, sorted(touched))

    reference = annotate(flat, parasitics, tech, Corner.SLOW)
    for name, expected in reference.loads.items():
        got = live.loads[name]
        assert (got.gate_cap_f, got.junction_cap_f, got.extra_cap_f) == (
            expected.gate_cap_f, expected.junction_cap_f, expected.extra_cap_f
        ), name


def test_reprice_arcs_picks_up_resize(tech):
    flat, _ = chain_flat(lanes=1)
    run = analyze_design(flat, tech, CLOCK)
    target = [t for t in flat.transistors if t.gate == "l0s1"]
    for t in target:
        t.w_um *= 4.0
    flat.rebuild_connectivity()
    touched = {net for t in target for net in (t.gate, t.drain, t.source)}
    update_net_loads(run.fast, sorted(touched))
    update_net_loads(run.slow, sorted(touched))
    changed = reprice_arcs(run.analyzer.graph, run.calculator, sorted(touched))
    assert changed > 0
    assert run.analyzer.verify(incremental=True).min_cycle_time_s \
        != run.report.min_cycle_time_s


# -- the sizing loop ----------------------------------------------------------


def test_close_timing_incremental_identical_to_full(tech):
    loads = [250e-15 * (1.25 ** i) for i in range(4)]

    flat1, path = chain_flat()
    run1 = analyze_design(flat1, tech, CLOCK)
    full = reference_close_timing(run1, tech, path, loads)

    flat2, path = chain_flat()
    run2 = analyze_design(flat2, tech, CLOCK)
    inc = close_timing(run2, tech, path, loads)

    assert sorted((n, w.t_min, w.t_max) for n, w in full.report.arrivals.items()) \
        == sorted((n, w.t_min, w.t_max) for n, w in inc.report.arrivals.items())
    assert full.report.critical_paths == inc.report.critical_paths
    assert full.report.races == inc.report.races
    assert full.report.min_cycle_time_s == inc.report.min_cycle_time_s
    for a, b in zip(full.iterations, inc.iterations):
        assert a.min_cycle_time_s == b.min_cycle_time_s
        assert a.worst_slack_s == b.worst_slack_s
    # The point of the live loop: far fewer arcs re-priced.
    assert sum(i.arcs_repriced for i in inc.iterations) \
        < sum(i.arcs_repriced for i in full.iterations)


def test_close_timing_improves_timing(tech):
    flat, path = chain_flat(lanes=1, load_f=500e-15)
    run = analyze_design(flat, tech, CLOCK)
    before = run.report.min_cycle_time_s
    closure = close_timing(run, tech, path, [500e-15])
    assert closure.report.min_cycle_time_s < before


# -- the battery's setup/race check ------------------------------------------


def test_setup_race_check_skips_without_slow_or_clock(tech):
    flat = flatten(ripple_carry_adder(2))
    ctx = make_context(flat, tech)  # no clock -> no slow annotation
    assert ctx.slow is None
    assert SetupRaceCheck().run(ctx) == []


def test_setup_race_check_reports_endpoints(tech):
    flat = flatten(ripple_carry_adder(2))
    ctx = make_context(flat, tech, clock=CLOCK)
    assert ctx.slow is not None
    findings = SetupRaceCheck().run(ctx)
    assert findings
    assert all(f.check == "timing_setup_race" for f in findings)
    # A relaxed 160 MHz clock: every endpoint passes with recorded slack.
    assert {f.severity for f in findings} == {Severity.PASS}
    assert all("slack_s" in f.metrics for f in findings)


def test_setup_race_check_flags_impossible_clock(tech):
    flat = flatten(ripple_carry_adder(2))
    ctx = make_context(flat, tech, clock=TwoPhaseClock(period_s=50e-12))
    findings = SetupRaceCheck().run(ctx)
    assert any(f.severity is Severity.VIOLATION for f in findings)


def test_battery_parallel_identical_with_timing_check(tech):
    # The battery's parallel form is the fleet's merged shards.
    flat = flatten(domino_carry_adder(2))
    ctx = make_context(flat, tech, clock=CLOCK, clock_hints=("clk",))
    serial = run_battery(ctx)
    assert serial.of_check("timing_setup_race")
    for shards in (1, 2, 4, 17):
        merged = sharded_battery(ctx, shards)
        assert merged.findings == serial.findings, shards
        assert merged.per_check == serial.per_check, shards
        assert list(merged.per_check_seconds) == list(
            serial.per_check_seconds)
        assert merged.queues.stats() == serial.queues.stats(), shards
