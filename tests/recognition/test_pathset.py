"""Differential tests: packed ``PathSet`` queries ≡ their path-list oracles.

Recognition answers every question about a pair's conduction paths by
testing per-device facts along the set's walk -- Python lists for small
sets, numpy chains for large ones -- and never builds the paths or a
per-path mask.  For every (output, rail) pair of ``chip_scale(1000)``
and of the latch, adder and mux designs, on both sweep strategies, and
of the two largest CCC shapes of ``chip_scale(3000)`` (144 and 112
devices, the sets perfbench's ``chip_front_3k`` queries), each query
here must equal its oracle in ``tests/oracles.py`` applied to the
materialized paths (:func:`tests.oracles.materialize`), which must
equal the per-pair walk.  The one-pass hot-carrier check and the
rewritten latch finder are compared with their old forms on the same
designs, and recognizing ``chip_scale(3000)`` must leave no per-path
state behind.
"""

import gc
import tracemalloc
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
from repro.recognition.memo import ClassificationMemo
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


@pytest.fixture(scope="module")
def bus_cccs():
    """The 144- and the 112-device CCC shapes of ``chip_scale(3000)``,
    one CCC each."""
    cccs = extract_cccs(flatten(chip_scale(3000).cell))
    return {n: next(c for c in cccs if len(c.transistors) == n)
            for n in (144, 112)}


@pytest.mark.parametrize("devices", [144, 112])
def test_pathset_queries_match_oracles_on_bus_cccs(bus_cccs, devices):
    """At perfbench's scale, under the default strategy: every set here
    comes from the vectorized sweep and answers from its numpy chains."""
    ccc = bus_cccs[devices]
    assert len(ccc.transistors) >= conduction._BFS_MIN_DEVICES
    sizes = []
    for out in sorted(ccc.output_nets or ccc.channel_nets):
        for rail in ("gnd", "vdd"):
            ps = conduction_paths(ccc, out, rail)
            assert (list(oracles.materialize(ps))
                    == oracles.enumerate_pair(ccc, out, rail)), (out, rail)
            assert_queries_match(ccc, ps)
            sizes.append(len(ps))
    assert min(sizes) >= conduction._NUMPY_MIN_PATHS


def test_recognition_retains_no_per_path_state():
    """What recognizing ``chip_scale(3000)`` leaves allocated -- the
    sweep records, the kept walks, the design -- stays under 18 MB.
    One Python-int mask per path queried came to 14.7 MiB here, and
    the design to 24-25 MB with them; without them it is about 14 MB."""
    flat = flatten(chip_scale(3000).cell)
    memo = ClassificationMemo()
    gc.collect()
    tracemalloc.start()
    try:
        design = recognize(flat, memo=memo)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert design.classifications
    assert retained < 18e6, f"{retained / 1e6:.1f} MB retained"


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
