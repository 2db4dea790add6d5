"""Property tests: incremental settle is observably identical to naive.

The engine only re-solves nets whose fan-in actually changed; the
contract (see ``SwitchSimulator``) is that skipping the rest leaves the
final state AND the history event order bit-identical to re-solving
everything (``tests.oracles.ExhaustiveSwitchSimulator``).  Random stimulus sequences over
dynamic (domino) and sequential (latch) designs probe exactly the
paths where stale-value bugs would hide.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.designs.adders import domino_carry_adder
from repro.designs.latch_zoo import dynamic_latch
from repro.netlist.flatten import flatten
from repro.switchsim.engine import SwitchSimulator
from tests.oracles import ExhaustiveSwitchSimulator


def _run(flat, stimulus, engine):
    sim = engine(flat)
    for vector in stimulus:
        sim.step(**vector)
    return sim


def _assert_identical(flat, stimulus):
    fast = _run(flat, stimulus, SwitchSimulator)
    naive = _run(flat, stimulus, ExhaustiveSwitchSimulator)
    nets = sorted(flat.nets)
    assert fast.values(nets) == naive.values(nets)
    assert fast.history == naive.history
    # The point of incremental solving: never MORE work than naive.
    assert fast.counters["net_solves"] <= naive.counters["net_solves"]


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3),
                          st.integers(0, 3)),
                min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_domino_adder_incremental_matches_naive(steps):
    width = 2
    flat = flatten(domino_carry_adder(width))
    stimulus = []
    for clk, a, b in steps:
        vec = {"clk": clk, "cin": 0}
        for i in range(width):
            vec[f"a{i}"] = (a >> i) & 1
            vec[f"b{i}"] = (b >> i) & 1
        stimulus.append(vec)
    _assert_identical(flat, stimulus)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_dynamic_latch_incremental_matches_naive(steps):
    flat = flatten(dynamic_latch())
    ports = {n.name for n in flat.nets.values() if n.is_port}
    stimulus = []
    for clk, d in steps:
        vec = {"clk": clk, "d": d}
        if "clk_b" in ports:
            vec["clk_b"] = 1 - clk
        stimulus.append(vec)
    _assert_identical(flat, stimulus)


def test_redundant_steps_are_cheap():
    """Re-applying an unchanged vector re-solves (almost) nothing."""
    flat = flatten(domino_carry_adder(4))
    sim = SwitchSimulator(flat)
    vec = {"clk": 0, "cin": 0}
    vec.update({f"a{i}": 1 for i in range(4)})
    vec.update({f"b{i}": 0 for i in range(4)})
    sim.step(**vec)
    before = sim.counters["net_solves"]
    sim.step(**vec)
    assert sim.counters["net_solves"] == before
