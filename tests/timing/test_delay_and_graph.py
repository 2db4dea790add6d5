"""Unit tests for repro.timing.delay and repro.timing.graph."""

import pytest

from repro.extraction.annotate import annotate
from repro.extraction.wireload import WireloadModel
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.process.corners import Corner
from repro.process.technology import strongarm_technology
from repro.recognition.recognizer import recognize
from repro.timing.delay import ArcDelayCalculator
from repro.timing.graph import (
    DelayArc,
    TimingGraph,
    _break_cycles,
    build_timing_graph,
)
from repro.timing.pessimism import PessimismSettings


@pytest.fixture(scope="module")
def tech():
    return strongarm_technology()


def make_stack(tech, build, ports):
    b = CellBuilder("dut", ports=ports)
    build(b)
    flat = flatten(b.build())
    par = WireloadModel().extract(flat, tech.wires)
    fast = annotate(flat, par, tech, Corner.FAST)
    slow = annotate(flat, par, tech, Corner.SLOW)
    design = recognize(flat)
    return design, ArcDelayCalculator(fast, slow)


def test_calculator_requires_correct_corners(tech):
    b = CellBuilder("x", ports=["a", "y"])
    b.inverter("a", "y")
    flat = flatten(b.build())
    par = WireloadModel().extract(flat, tech.wires)
    typ = annotate(flat, par, tech, Corner.TYPICAL)
    with pytest.raises(ValueError):
        ArcDelayCalculator(typ, typ)


def test_calculator_requires_one_netlist_and_technology(tech):
    def inverter():
        b = CellBuilder("x", ports=["a", "y"])
        b.inverter("a", "y")
        return flatten(b.build())

    flat, other = inverter(), inverter()
    par = WireloadModel().extract(flat, tech.wires)
    fast = annotate(flat, par, tech, Corner.FAST)
    ArcDelayCalculator(fast, annotate(flat, par, tech, Corner.SLOW))
    with pytest.raises(ValueError, match="same netlist"):
        ArcDelayCalculator(fast, annotate(other, par, tech, Corner.SLOW))
    with pytest.raises(ValueError, match="one technology"):
        ArcDelayCalculator(
            fast, annotate(flat, par, strongarm_technology(), Corner.SLOW))


def test_inverter_graph_and_bounds(tech):
    design, calc = make_stack(tech, lambda b: b.inverter("a", "y"), ["a", "y"])
    graph = build_timing_graph(design, calc)
    arcs = [a for a in graph.arcs if a.src == "a" and a.dst == "y"]
    assert len(arcs) == 1
    arc = arcs[0]
    assert 0 < arc.d_min < arc.d_max
    # Gate delays should land in the 10s-of-ps to sub-ns regime.
    assert 1e-12 < arc.d_max < 2e-9


def test_series_stack_slower_than_single_device(tech):
    design1, calc1 = make_stack(tech, lambda b: b.inverter("a", "y", wn=4.0),
                                ["a", "y"])
    g1 = build_timing_graph(design1, calc1)
    single = next(a for a in g1.arcs if a.dst == "y")

    design4, calc4 = make_stack(
        tech, lambda b: b.nand(["a", "b", "c", "d"], "y", wn=4.0),
        ["a", "b", "c", "d", "y"])
    g4 = build_timing_graph(design4, calc4)
    stacked = next(a for a in g4.arcs if a.src == "a" and a.dst == "y")
    assert stacked.d_max > 2.0 * single.d_max  # 4-high stack resistance


def test_domino_graph_arcs(tech):
    def build(b):
        b.domino_gate("clk", ["a", "b"], "y", dyn_net="dyn")

    b = CellBuilder("dut", ports=["clk", "a", "b", "y"])
    build(b)
    flat = flatten(b.build())
    par = WireloadModel().extract(flat, tech.wires)
    fast = annotate(flat, par, tech, Corner.FAST)
    slow = annotate(flat, par, tech, Corner.SLOW)
    design = recognize(flat)
    graph = build_timing_graph(design, ArcDelayCalculator(fast, slow))

    kinds: dict = {}
    for a in graph.arcs:
        kinds.setdefault((a.src, a.dst), set()).add(a.kind)
    assert "precharge" in kinds.get(("clk", "dyn"), set())
    assert "evaluate" in kinds.get(("clk", "dyn"), set())  # foot arc
    assert kinds.get(("a", "dyn")) == {"evaluate"}
    assert kinds.get(("dyn", "y")) == {"gate"}
    # Keeper feedback (y -> dyn) must NOT be an arc.
    assert ("y", "dyn") not in kinds


def test_pass_network_arcs(tech):
    def build(b):
        b.inverter("a", "drv")
        b.nmos_pass("drv", "out", "en")
        b.inverter("out", "y")

    design, calc = make_stack(tech, build, ["a", "en", "y"])
    graph = build_timing_graph(design, calc)
    # The inverter merges with the pass device into one CCC; timing must
    # still see data ("a") and enable ("en") arcs into "out".
    pairs = {(a.src, a.dst) for a in graph.arcs}
    assert ("a", "out") in pairs
    assert ("en", "out") in pairs
    assert ("out", "y") in pairs


def test_storage_loop_broken(tech):
    def build(b):
        b.inverter("x", "y")
        b.inverter("y", "x")

    design, calc = make_stack(tech, build, ["x", "y"])
    graph = build_timing_graph(design, calc)
    assert graph.notes  # a feedback arc was dropped
    # Remaining graph is acyclic: a topological order covers all nets.
    srcs = {a.src for a in graph.arcs}
    dsts = {a.dst for a in graph.arcs}
    assert srcs or dsts  # something remains


def _arc_graph(edges):
    graph = TimingGraph()
    for src, dst in edges:
        graph.add(DelayArc(src, dst, 1e-12, 2e-12, "gate"))
    return graph


def test_break_cycles_kept_arc_order_is_pinned():
    """Roots in sorted order, arcs in insertion order, an arc kept when
    it is traversed: the kept list is the DFS's arc preorder, which the
    chip-scale canonical digests also depend on."""
    graph = _arc_graph([("a", "b"), ("b", "c"), ("c", "a"), ("b", "d"),
                        ("d", "b"), ("a", "d"), ("e", "a")])
    _break_cycles(graph)
    assert [(a.src, a.dst) for a in graph.arcs] == [
        ("a", "b"), ("b", "c"), ("b", "d"), ("a", "d"), ("e", "a")]
    assert graph.notes == ["broke 2 feedback arc(s) for acyclic analysis"]
    assert [a.dst for a in graph.fanout["b"]] == ["c", "d"]


def test_break_cycles_long_ring_needs_no_recursion():
    """A 20,000-arc ring is one DFS chain 20,000 nets deep."""
    import sys

    n = 20_000
    names = [f"n{i:05d}" for i in range(n)]
    graph = _arc_graph(zip(names, names[1:] + names[:1]))
    limit = sys.getrecursionlimit()
    _break_cycles(graph)
    assert sys.getrecursionlimit() == limit
    assert len(graph.arcs) == n - 1
    assert (graph.arcs[-1].src, graph.arcs[-1].dst) == (names[-2], names[-1])
    assert graph.notes == ["broke 1 feedback arc(s) for acyclic analysis"]


def test_pessimism_scale_widens_bounds(tech):
    b = CellBuilder("dut", ports=["a", "y"])
    b.inverter("a", "y")
    flat = flatten(b.build())
    par = WireloadModel().extract(flat, tech.wires)
    fast = annotate(flat, par, tech, Corner.FAST)
    slow = annotate(flat, par, tech, Corner.SLOW)
    design = recognize(flat)

    def width(settings):
        calc = ArcDelayCalculator(fast, slow, settings)
        graph = build_timing_graph(design, calc)
        arc = next(a for a in graph.arcs if a.dst == "y")
        return arc.d_max - arc.d_min

    assert width(PessimismSettings(scale=2.0)) > width(PessimismSettings(scale=1.0)) \
        > width(PessimismSettings(scale=0.0))
