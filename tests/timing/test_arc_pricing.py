"""Arc pricing against its oracle, and the per-shape resistance table.

Production STA reads each device shape's switching resistance from a
table on the annotated design and prices each conduction path once per
CCC.  :class:`tests.oracles.OracleDelayCalculator` prices every device
of every path of every arc with its own model call; the graphs must
agree float for float, with and without the arc-price cache.
"""

import pytest

from repro.checks.helpers import device_map, path_resistance, pull_paths
from repro.designs import chip_scale
from repro.designs.adders import domino_carry_adder
from repro.extraction.annotate import annotate, update_net_loads
from repro.extraction.wireload import WireloadModel
from repro.netlist.flatten import flatten
from repro.process.corners import Corner
from repro.process.technology import strongarm_technology
from repro.recognition.recognizer import recognize
from repro.timing.arccache import ArcPriceCache
from repro.timing.clocking import TwoPhaseClock
from repro.timing.delay import ArcDelayCalculator
from repro.timing.driver import analyze_design
from repro.timing.graph import build_timing_graph
from tests.oracles import OracleDelayCalculator, arc_rows

CLOCK = TwoPhaseClock(period_s=6.25e-9, non_overlap_s=0.1e-9)

DESIGNS = {
    "chip_1k": lambda: chip_scale(1000).cell,
    "domino8": lambda: domino_carry_adder(8),
}


@pytest.fixture(scope="module")
def tech():
    return strongarm_technology()


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def priced(request, tech):
    """One recognized, annotated design plus its oracle-priced graph."""
    flat = flatten(DESIGNS[request.param]())
    design = recognize(flat)
    parasitics = WireloadModel().extract(flat, tech.wires)
    corners = {corner: annotate(flat, parasitics, tech, corner)
               for corner in (Corner.TYPICAL, Corner.FAST, Corner.SLOW)}
    oracle = build_timing_graph(
        design, OracleDelayCalculator(corners[Corner.FAST],
                                      corners[Corner.SLOW]))
    return request.param, flat, design, corners, oracle


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_sta_graph_matches_oracle(priced, cached):
    _, _, design, corners, oracle = priced
    calculator = ArcDelayCalculator(corners[Corner.FAST], corners[Corner.SLOW])
    graph = build_timing_graph(design, calculator,
                               arc_cache=ArcPriceCache() if cached else None)
    assert oracle.arcs
    assert arc_rows(graph) == arc_rows(oracle)
    assert graph.notes == oracle.notes


def test_shape_table_matches_model(priced, tech):
    label, flat, _, corners, _ = priced
    for corner, annotated in corners.items():
        vdd = tech.vdd_at(corner)
        for t in flat.transistors:
            model = tech.mosfet(t.polarity, corner)
            expected = model.on_resistance(
                vdd, t.w_um, t.effective_length(tech.l_min_um))
            assert annotated.on_resistance(t) == expected, (corner, t.name)
        shapes = {(t.polarity, t.w_um, t.effective_length(tech.l_min_um))
                  for t in flat.transistors}
        assert len(annotated.ron_table) == len(shapes)
    if label == "chip_1k":
        assert len(shapes) == 14


def test_check_path_resistance_sums_in_path_order(priced, tech):
    _, _, design, corners, _ = priced
    typical = corners[Corner.TYPICAL]
    devices = device_map(typical)
    vdd = tech.vdd_at(Corner.TYPICAL)
    checked = 0
    for classification in design.classifications[:40]:
        ccc = classification.ccc
        for net in sorted(ccc.output_nets):
            down, up = pull_paths(ccc, net)
            for path in down.paths() + up.paths():
                expected = 0.0
                for name in path.devices:
                    t = devices[name]
                    expected += tech.mosfet(t.polarity, Corner.TYPICAL) \
                        .on_resistance(vdd, t.w_um,
                                       t.effective_length(tech.l_min_um))
                assert path_resistance(path, typical, devices) == expected
                checked += 1
    assert checked


def test_resize_reprices_on_the_live_calculator(tech):
    flat = flatten(domino_carry_adder(8))
    parasitics = WireloadModel().extract(flat, tech.wires)
    run = analyze_design(flat, tech, CLOCK, clock_hints=("clk",),
                         parasitics=parasitics)
    arcs = [arc for arc in run.analyzer.graph.arcs if arc.paths]
    before = [run.calculator.arc_delay(list(a.paths), a.dst) for a in arcs]

    resized = [t for t in flat.transistors if t.polarity == "nmos"][::3]
    for t in resized:
        t.w_um *= 2.5
    flat.rebuild_connectivity()
    touched = sorted({net for t in resized
                      for net in (t.gate, t.drain, t.source)})
    update_net_loads(run.fast, touched)
    update_net_loads(run.slow, touched)

    fresh = ArcDelayCalculator(annotate(flat, parasitics, tech, Corner.FAST),
                               annotate(flat, parasitics, tech, Corner.SLOW))
    after = [run.calculator.arc_delay(list(a.paths), a.dst) for a in arcs]
    assert after == [fresh.arc_delay(list(a.paths), a.dst) for a in arcs]
    assert after != before
