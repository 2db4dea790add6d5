"""Differential tests: packed ``PathSet`` queries ≡ their path-list oracles.

Recognition answers every question about a pair's conduction paths from
the masks a :class:`~repro.recognition.conduction.PathSet` carries, and
never builds the paths.  For every (output, rail) pair of
``chip_scale(1000)`` and of the latch, adder and mux designs, on both
sweep strategies, each query here must equal its oracle in
``tests/oracles.py`` applied to the materialized paths
(:func:`tests.oracles.materialize`), which must equal the per-pair
walk.  The one-pass hot-carrier check and the
rewritten latch finder are compared with their old forms on the same
designs.
"""

import gc
import weakref

import pytest

from repro.checks.driver import make_context
from repro.checks.hot_carrier import HotCarrierCheck
from repro.designs import chip_scale
from repro.designs.adders import domino_carry_adder, ripple_carry_adder
from repro.designs.latch_zoo import (
    dynamic_latch,
    jamb_latch,
    pulsed_latch,
    sr_nand_latch,
)
from repro.designs.muxes import pass_mux_tree
from repro.netlist.flatten import flatten
from repro.process.technology import strongarm_technology
from repro.recognition import conduction
from repro.recognition.ccc import extract_cccs
from repro.recognition.conduction import conduction_paths
from repro.recognition.recognizer import recognize
from tests import oracles

#: Truth tables are compared up to this many inputs; the oracle costs
#: 2**n assignments per path.
TABLE_INPUTS = 8


def assert_queries_match(ccc, ps):
    """Every order-free query on ``ps`` equals its oracle on its paths."""
    paths = list(oracles.materialize(ps))
    assert len(ps) == len(paths)
    assert ps.support() == oracles.support(paths)
    assert ps.devices() == oracles.devices(paths)
    assert ps.device_depths() == oracles.device_depths(paths)
    for polarity in ("nmos", "pmos"):
        assert (list(oracles.materialize(ps.of_polarity(polarity)))
                == oracles.of_polarity(paths, ccc, polarity))
    nets = sorted(ccc.channel_nets)
    for avoid in (ccc.output_nets, set(nets[::2]), {"vdd", "gnd"}):
        assert (list(oracles.materialize(ps.avoiding(avoid)))
                == oracles.avoiding(paths, ccc, set(avoid)))
    gates = sorted(ps.support())
    for within in (set(gates[::2]), set(gates[1::2]), set(gates)):
        assert (list(oracles.materialize(ps.gated_within(within)))
                == oracles.gated_within(paths, within))
    for gate in gates + ["no_such_net"]:
        assert ps.footed_by(gate) == oracles.footed_by(paths, gate)
    if len(gates) <= TABLE_INPUTS:
        for inputs in (gates, gates[1:], gates + ["no_such_net"]):
            assert (ps.truth_table(inputs)
                    == oracles.truth_table(paths, inputs))


def _zoo():
    return {
        "chip_1k": flatten(chip_scale(1000).cell),
        "dynlatch": flatten(dynamic_latch()),
        "jamb": flatten(jamb_latch()),
        "srlatch": flatten(sr_nand_latch()),
        "pulsed": flatten(pulsed_latch()),
        "rca4": flatten(ripple_carry_adder(4)),
        "domino4": flatten(domino_carry_adder(4)),
        "muxtree": flatten(pass_mux_tree(2)),
    }


@pytest.fixture(scope="module")
def zoo():
    return _zoo()


@pytest.fixture(params=["default", "bfs"])
def strategy(request, monkeypatch):
    if request.param == "bfs":
        monkeypatch.setattr(conduction, "_BFS_MIN_DEVICES", 0)
    return request.param


@pytest.mark.parametrize("design", sorted(_zoo()))
def test_pathset_queries_match_oracles(zoo, design, strategy):
    pairs = 0
    for ccc in extract_cccs(zoo[design]):
        for out in sorted(ccc.output_nets or ccc.channel_nets):
            for rail in ("gnd", "vdd"):
                ps = conduction_paths(ccc, out, rail)
                assert (list(oracles.materialize(ps))
                        == oracles.enumerate_pair(ccc, out, rail)), (out, rail)
                assert_queries_match(ccc, ps)
                pairs += 1
    assert pairs


def test_hot_carrier_matches_every_path_scan(zoo):
    tech = strongarm_technology()
    for name, flat in zoo.items():
        ctx = make_context(flat, tech)
        got = HotCarrierCheck().run(ctx)
        assert got, name
        assert got == oracles.OracleHotCarrierCheck().run(ctx), name


def test_storage_nodes_match_reference_scan(zoo):
    found = []
    for name, flat in zoo.items():
        design = recognize(flat, memo=False)
        expected = oracles.reference_storage_nodes(flat,
                                                   design.classifications)
        # In order, and field by field: static, partner, enables too.
        assert design.storage == expected, name
        found.extend(design.storage)
    assert {n.kind for n in found} == {"cross_coupled", "pass_written"}
    assert {n.static for n in found} == {True, False}


def test_ccc_and_path_cache_freed_by_refcount(zoo, strategy):
    """A CCC, its path cache and the ``PathSet`` objects in it form no
    reference cycle, so dropping the CCC frees them at once."""
    ccc = extract_cccs(zoo["jamb"])[0]
    for out in ccc.output_nets:
        for rail in ("gnd", "vdd"):
            ps = conduction_paths(ccc, out, rail)
            ps.support()
            oracles.materialize(ps.of_polarity("nmos"))
    ref = weakref.ref(ccc)
    gc.collect()
    gc.disable()
    try:
        del ccc, ps
        assert ref() is None
    finally:
        gc.enable()
