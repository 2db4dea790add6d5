"""Differential tests: pricing from packed path sets ≡ the path-list forms.

The STA graph and the beta-ratio, edge-rate, writability and leakage
checks price conduction paths straight from the sweep records
(:meth:`~repro.recognition.conduction.PathSet.sums`) and test gates and
devices along the same walks.  Their old forms, which materialize every pair
as path objects, live in ``tests/oracles.py``.  On ``chip_scale(1000)``,
a domino adder and the latch, SRAM and mux zoo, with both sweep
strategies, the graphs must agree arc for arc and float
for float (with and without the arc-price cache), each arc's retained
selection must be exactly the reference arc's path list, and the
findings must be equal, metrics included.  A cold layout campaign must
build no ``ConductionPath`` at all: path objects exist only in the
oracles, and production exposes no way to build them.
"""

import dataclasses

import pytest

from repro.checks import leakage, writability
from repro.checks.beta import BetaRatioCheck
from repro.checks.driver import make_context
from repro.checks.edge_rate import EdgeRateCheck
from repro.checks.helpers import device_map, off_network_leakage
from repro.checks.leakage import DynamicLeakageCheck
from repro.checks.writability import WritabilityCheck
from repro.core.campaign import CbvCampaign, DesignBundle
from repro.designs import chip_scale
from repro.designs.adders import domino_carry_adder
from repro.designs.latch_zoo import (
    dynamic_latch,
    jamb_latch,
    pulsed_latch,
    sr_nand_latch,
)
from repro.designs.manchester import manchester_carry_chain
from repro.designs.muxes import pass_mux_tree
from repro.designs.sram import sram_array
from repro.netlist.flatten import flatten
from repro.perf import DesignCache
from repro.process.technology import strongarm_technology
from repro.recognition import conduction
from repro.timing.arccache import ArcPriceCache
from repro.timing.clocking import TwoPhaseClock
from repro.timing.delay import ArcDelayCalculator
from repro.timing.graph import build_timing_graph
from tests import oracles

CLOCK = TwoPhaseClock(period_s=10e-9)

ZOO = {
    "chip_1k": lambda: chip_scale(1000).cell,
    "domino8": lambda: domino_carry_adder(8),
    "dynlatch": dynamic_latch,
    "jamb": jamb_latch,
    "srlatch": sr_nand_latch,
    "pulsed": pulsed_latch,
    "sram": lambda: sram_array(4, 4),
    "muxtree": lambda: pass_mux_tree(2),
    "manchester": manchester_carry_chain,
}

CHECKS = [
    (BetaRatioCheck, oracles.OracleBetaRatioCheck),
    (EdgeRateCheck, oracles.OracleEdgeRateCheck),
    (WritabilityCheck, oracles.OracleWritabilityCheck),
]


@pytest.fixture(scope="module")
def tech():
    return strongarm_technology()


@pytest.fixture(scope="module")
def contexts(tech):
    """One check context per (design, sweep strategy), recognized under
    that strategy: sweep records are cached on the CCCs."""
    out = {}
    saved = conduction._BFS_MIN_DEVICES
    try:
        for strategy, min_devices in (("default", saved), ("bfs", 0)):
            conduction._BFS_MIN_DEVICES = min_devices
            for name, build in ZOO.items():
                ctx = make_context(flatten(build()), tech, clock=CLOCK)
                out[name, strategy] = ctx
                # Sweep every pair the consumers read while the strategy
                # is in force.
                build_timing_graph(ctx.design,
                                   ArcDelayCalculator(ctx.fast, ctx.slow))
                for check, _ in CHECKS:
                    check().run(ctx)
                DynamicLeakageCheck().run(ctx)
                for classification in ctx.design.classifications:
                    for net in classification.ccc.channel_nets:
                        conduction.conduction_paths(classification.ccc,
                                                    net, "gnd")
    finally:
        conduction._BFS_MIN_DEVICES = saved
    return out


CASES = [(name, strategy) for strategy in ("default", "bfs") for name in ZOO]


@pytest.fixture(scope="module")
def references(contexts):
    """The path-list graph of each context, built once."""
    return {
        case: oracles.reference_timing_graph(
            ctx.design, oracles.OracleDelayCalculator(ctx.fast, ctx.slow))
        for case, ctx in contexts.items()
    }


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("name,strategy", CASES)
def test_sta_graph_matches_reference(contexts, references, name, strategy,
                                    cached):
    ctx = contexts[name, strategy]
    reference = references[name, strategy]
    graph = build_timing_graph(ctx.design,
                               ArcDelayCalculator(ctx.fast, ctx.slow),
                               arc_cache=ArcPriceCache() if cached else None)
    assert reference.arcs
    assert oracles.arc_rows(graph) == oracles.arc_rows(reference)
    assert graph.notes == reference.notes
    for arc, ref in zip(graph.arcs, reference.arcs):
        # The selection, materialized set by set, is the reference
        # arc's path list: sources in order, each in per-pair order.
        assert oracles.selected_paths(arc.paths) == ref.paths


def partnerless(ctx):
    """``ctx`` with every storage node's partner dropped: writability
    then falls back to "feedback avoids the write devices", a branch
    no recognized zoo node reaches."""
    storage = [dataclasses.replace(n, partner=None) for n in ctx.design.storage]
    return dataclasses.replace(
        ctx, design=dataclasses.replace(ctx.design, storage=storage))


@pytest.mark.parametrize("name,strategy", CASES)
def test_checks_match_path_list_forms(contexts, name, strategy):
    ctx = contexts[name, strategy]
    for check, oracle in CHECKS:
        assert check().run(ctx) == oracle().run(ctx), check.name
    ctx = partnerless(ctx)
    assert (WritabilityCheck().run(ctx)
            == oracles.OracleWritabilityCheck().run(ctx))


@pytest.mark.parametrize("name,strategy", CASES)
def test_leakage_matches_path_list_form(contexts, name, strategy,
                                        monkeypatch):
    ctx = contexts[name, strategy]
    devices = device_map(ctx.fast)
    for classification in ctx.design.classifications:
        ccc = classification.ccc
        for net in sorted(ccc.channel_nets):
            assert (off_network_leakage(ccc, net, ctx.fast, devices)
                    == oracles.reference_off_network_leakage(
                        ccc, net, ctx.fast, devices)), net
    got = DynamicLeakageCheck().run(ctx)
    monkeypatch.setattr(leakage, "off_network_leakage",
                        oracles.reference_off_network_leakage)
    assert got == DynamicLeakageCheck().run(ctx)


def test_writability_prices_each_ccc_once(contexts, monkeypatch):
    """Storage nodes that share a CCC (an SRAM column's cells, joined by
    their bitlines) share one device pricing."""
    ctx = contexts["sram", "default"]
    priced = []
    device_resistances = writability.device_resistances

    def counting(names, annotated, devices):
        priced.append(id(names))
        return device_resistances(names, annotated, devices)

    monkeypatch.setattr(writability, "device_resistances", counting)
    assert WritabilityCheck().run(ctx)
    assert len(priced) == len(set(priced))
    assert len(priced) < sum(node.static for node in ctx.design.storage)


def test_zoo_exercises_every_branch(contexts):
    """The comparisons above are not vacuous: every ported check
    reports on the zoo, writability with and without named partners,
    and edge rate on keepered dynamic nodes."""
    seen = {check.name: 0 for check, _ in CHECKS}
    partnerless_findings = 0
    keepered = 0
    for (name, strategy), ctx in contexts.items():
        if strategy != "default":
            continue
        for check, _ in CHECKS:
            seen[check.name] += len(check().run(ctx))
        partnerless_findings += len(WritabilityCheck().run(partnerless(ctx)))
        keepered += sum(bool(dyn.keeper_devices)
                        for c in ctx.design.classifications
                        for dyn in c.dynamic_nodes.values())
    assert all(seen.values()), seen
    assert partnerless_findings
    assert keepered


def test_cold_layout_campaign_builds_no_conduction_path(monkeypatch):
    built = []
    ConductionPath = oracles.ConductionPath
    init = ConductionPath.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConductionPath, "__init__", counting_init)
    cs = chip_scale(1000)
    bundle = DesignBundle(name="chip1000", cell=cs.cell,
                          technology=strongarm_technology(), clock=CLOCK,
                          clock_hints=(cs.clock_port,), use_layout=True)
    report = CbvCampaign(bundle).run(cache=DesignCache())
    assert report.timing is not None and report.timing.critical_paths
    assert not built
    assert not hasattr(conduction, "ConductionPath")
    assert not hasattr(conduction.PathSet, "paths")
    # The spy itself works: materializing one pair counts.
    ccc = report.design.classifications[0].ccc
    for out in sorted(ccc.output_nets or ccc.channel_nets):
        oracles.materialize(conduction.conduction_paths(ccc, out, "gnd"))
    assert built
