"""Arc pricing against its oracle, and the per-shape resistance table.

Production STA reads each device shape's switching resistance from a
table on the annotated design and prices each source pair's paths once,
straight from the sweep record.  :func:`tests.oracles.reference_timing_graph`
materializes every pair and :class:`tests.oracles.OracleDelayCalculator`
prices every device of every path of every arc with its own model call;
the graphs must agree float for float, with and without the arc-price
cache.
"""

import math
import pickle
from array import array

import pytest

from repro.checks.helpers import device_map, device_resistances, pull_paths
from repro.designs import chip_scale
from repro.designs.adders import domino_carry_adder
from repro.extraction.annotate import annotate, update_net_loads
from repro.extraction.wireload import WireloadModel
from repro.netlist.flatten import flatten
from repro.process.corners import Corner
from repro.process.technology import strongarm_technology
from repro.recognition import conduction
from repro.recognition.conduction import PathSet, conduction_paths
from repro.recognition.recognizer import recognize
from repro.timing.arccache import ArcPriceCache, HashedTuple
from repro.timing.clocking import TwoPhaseClock
from repro.timing.delay import ArcDelayCalculator
from repro.timing.driver import analyze_design
from repro.timing.graph import build_timing_graph, reprice_arcs
from tests.oracles import (
    OracleDelayCalculator,
    arc_rows,
    ascending_sum,
    path_at,
    reference_timing_graph,
)

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
    oracle = reference_timing_graph(
        design, OracleDelayCalculator(corners[Corner.FAST],
                                      corners[Corner.SLOW]))
    return request.param, flat, design, corners, oracle


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_sta_graph_matches_oracle(priced, cached):
    label, _, design, corners, oracle = priced
    calculator = ArcDelayCalculator(corners[Corner.FAST], corners[Corner.SLOW])
    graph = build_timing_graph(design, calculator,
                               arc_cache=ArcPriceCache() if cached else None)
    assert oracle.arcs
    assert arc_rows(graph) == arc_rows(oracle)
    assert graph.notes == oracle.notes
    if label == "chip_1k":
        # Both of drive_bounds' row readers ran: numpy for the array
        # rows of sets walked with numpy, Python for row lists.
        kinds = {type(rows) for arc in graph.arcs for _, rows in arc.paths}
        assert {array, list} <= kinds


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
        ron = device_resistances([t.name for t in ccc.transistors], typical,
                                 devices)
        for net in sorted(ccc.output_nets):
            for paths in pull_paths(ccc, net):
                got = paths.sums(ron)
                assert len(got) == len(paths)
                for row, value in enumerate(got):
                    path = path_at(paths, row)
                    expected = 0.0
                    for name in path.devices:
                        t = devices[name]
                        expected += tech.mosfet(t.polarity, Corner.TYPICAL) \
                            .on_resistance(vdd, t.w_um,
                                           t.effective_length(tech.l_min_um))
                    assert value == expected
                    checked += 1
    assert checked


@pytest.mark.parametrize("numpy_min_paths", [0, 1 << 30],
                         ids=["numpy", "python"])
def test_sta_path_resistance_is_a_left_to_right_sum(priced, monkeypatch,
                                                     numpy_min_paths):
    """Ten 0.1s add to 0.9999999999999999 left to right, and 0.1, 0.2,
    0.3 to 0.6000000000000001; ``sum`` compensates both to 1.0 and 0.6
    from Python 3.12 on.  STA prices a path left to right, smallest
    value first, on every interpreter and in both summing backends."""
    assert ascending_sum([0.1] * 10) == 0.9999999999999999
    assert ascending_sum([0.3, 0.1, 0.2]) == 0.6000000000000001
    monkeypatch.setattr(conduction, "_NUMPY_MIN_PATHS", numpy_min_paths)
    label, _, design, corners, _ = priced
    calculator = ArcDelayCalculator(corners[Corner.FAST], corners[Corner.SLOW])
    differs = 0
    for classification in design.classifications:
        ccc = classification.ccc
        values = [0.1 * (1 + slot % 3) for slot in range(len(ccc.transistors))]
        for net in sorted(ccc.output_nets):
            paths = conduction_paths(ccc, net, "gnd")
            slot = {name: i for i, name in enumerate(paths.device_names)}
            fast, slow = calculator.path_resistances(paths, (values, values))
            for row, (r_fast, r_slow) in enumerate(zip(fast, slow)):
                path = path_at(paths, row)
                mine = [values[slot[name]] for name in path.devices]
                assert r_fast == r_slow == ascending_sum(mine)
                differs += r_fast != math.fsum(mine)
    # domino8's pull-downs are at most three devices deep, too shallow
    # for these values to round differently.
    assert differs or label == "domino8"


def test_resize_reprices_on_the_live_calculator(tech):
    flat = flatten(domino_carry_adder(8))
    parasitics = WireloadModel().extract(flat, tech.wires)
    run = analyze_design(flat, tech, CLOCK, clock_hints=("clk",),
                         parasitics=parasitics)
    arcs = [arc for arc in run.analyzer.graph.arcs if arc.paths]
    assert all(isinstance(pair, PathSet) for a in arcs for pair, _ in a.paths)
    before = [run.calculator.arc_delay(a.paths, a.dst) for a in arcs]

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
    after = [run.calculator.arc_delay(a.paths, a.dst) for a in arcs]
    assert after == [fresh.arc_delay(a.paths, a.dst) for a in arcs]
    assert after != before


def test_repricing_prices_each_ccc_once(tech, monkeypatch):
    """``reprice_arcs`` prices each CCC's devices once per call and each
    source pair once, however many arcs share them; a graph build does
    the same per CCC."""
    flat = flatten(domino_carry_adder(8))
    run = analyze_design(flat, tech, CLOCK, clock_hints=("clk",))
    graph = run.analyzer.graph
    names: list[int] = []
    device_resistances = ArcDelayCalculator.device_resistances

    def counting(self, device_names):
        names.append(id(device_names))
        return device_resistances(self, device_names)

    monkeypatch.setattr(ArcDelayCalculator, "device_resistances", counting)
    dsts = sorted(graph.fanin)
    reprice_arcs(graph, run.calculator, dsts)
    cccs = {id(pair.device_names) for dst in dsts
            for arc in graph.fanin[dst] for pair, _ in arc.paths}
    assert len(names) == len(set(names)) == len(cccs)
    names.clear()
    build_timing_graph(run.design, run.calculator)
    assert len(names) == len(set(names))


def test_hashed_tuple_keys_equal_plain_tuple_keys():
    """Arc-price keys hash their CCC's structure and geometry once; they
    must stay interchangeable with plain tuples, pickles included."""
    items = (("c", 1, ("i", "-")), (2.0, 0.35, 0.0))
    hashed = HashedTuple(items)
    assert hashed == items and hash(hashed) == hash(items)
    cache = ArcPriceCache()
    assert cache.drive_bounds((hashed, 1, 2), lambda: (1.0, 2.0)) == (1.0, 2.0)
    assert cache.drive_bounds((items, 1, 2), lambda: (9.0, 9.0)) == (1.0, 2.0)
    assert (cache.hits, cache.misses) == (1, 1)
    restored = pickle.loads(pickle.dumps(hashed))
    assert type(restored) is HashedTuple
    assert restored == items and hash(restored) == hash(items)
