"""Property tests: vector engine ≡ reference engine on random networks.

The seed-design sweep (tests/switchsim/test_vector_equivalence.py)
covers curated circuit styles; this file attacks the vector engine with
hypothesis-generated transistor soups -- random channel graphs that
freely include cyclic charge-sharing paths, pass-gate chains gated by
their own channel nets, floating (rail-less) nets, and ratio fights --
and asserts state-for-state identity across 50 timesteps of random
drive/release stimulus.  Networks that legitimately oscillate must
raise :class:`OscillationError` in *both* engines with identical
pre-raise history.

The vector engine reads a build of its own, stamping CCCs only as its
solves need them, while the reference's build has every CCC stamped;
agreement between the engines says nothing about the tables
themselves, so every soup's build is also compared with the per-pair
oracle (:func:`tests.oracles.direct_tables`) byte for byte.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.switchsim import vector as vector_mod
from repro.switchsim.engine import OscillationError, SwitchSimulator
from repro.switchsim.tables import PackedSwitchTables
from repro.switchsim.values import Logic
from repro.switchsim.vector import VectorSwitchSimulator
from tests.oracles import direct_tables, table_mismatches

PORTS = ["p0", "p1", "p2"]
INTERNAL = ["x0", "x1", "x2", "x3"]
NETS = PORTS + INTERNAL + ["vdd", "gnd"]
WIDTHS = [1.0, 2.0, 4.0, 10.0]

transistor = st.tuples(
    st.sampled_from(["nmos", "pmos"]),
    st.sampled_from(NETS),                 # gate (rail gates allowed)
    st.sampled_from(NETS),                 # drain
    st.sampled_from(NETS),                 # source
    st.sampled_from(WIDTHS),
)

network = st.lists(transistor, min_size=2, max_size=9)

stimulus = st.lists(
    st.tuples(st.sampled_from(PORTS),
              st.sampled_from(["0", "1", "x", "release"])),
    min_size=50, max_size=50,
)


def _build(devices):
    b = CellBuilder("soup", ports=PORTS)
    for i, (pol, gate, drain, source, w) in enumerate(devices):
        if drain == source:
            continue  # degenerate: no channel
        if pol == "nmos":
            b.nmos(gate, drain, source, w=w, name=f"m{i}")
        else:
            b.pmos(gate, drain, source, w=w, name=f"m{i}")
    cell = b.build()
    if not cell.transistors:
        return None
    return flatten(cell)


def _engines(flat):
    """The reference over a build checked against the oracle, and the
    vector engine over a fresh, lazily stamped one."""
    tables = PackedSwitchTables.build(flat)
    assert table_mismatches(tables, direct_tables(flat)) == []
    return (SwitchSimulator(flat, tables=tables),
            VectorSwitchSimulator(flat))


def _apply(sim, net, action):
    if action == "release":
        sim.release(net)
    elif action == "x":
        sim.drive(net, Logic.X)
    else:
        sim.drive(net, int(action))


@given(network, stimulus)
@settings(max_examples=60, deadline=None)
def test_vector_identical_on_random_networks(devices, steps):
    _lockstep(devices, steps)


@given(network, stimulus)
@settings(max_examples=60, deadline=None)
def test_vector_identical_on_random_networks_batched(devices, steps):
    """The same soups with every CCC through the batched numpy pass; by
    default a soup's CCCs, under ``_NUMPY_MIN_DEVICES`` devices, take
    the per-CCC Python one."""
    saved = vector_mod._NUMPY_MIN_DEVICES
    vector_mod._NUMPY_MIN_DEVICES = 0
    try:
        _lockstep(devices, steps)
    finally:
        vector_mod._NUMPY_MIN_DEVICES = saved


def _sampled_solves() -> dict[str, int]:
    """Soups drawn as the property tests draw them, from a fixed seed,
    each run in lockstep with the reference; returns the vector engine's
    reach and row solves over the sample."""
    rng = random.Random(20261019)
    solves = {"reach_solves": 0, "row_solves": 0}
    for _ in range(60):
        devices = [(rng.choice(["nmos", "pmos"]), rng.choice(NETS),
                    rng.choice(NETS), rng.choice(NETS), rng.choice(WIDTHS))
                   for _ in range(rng.randint(2, 9))]
        steps = [(rng.choice(PORTS), rng.choice(["0", "1", "x", "release"]))
                 for _ in range(50)]
        vec = _lockstep(devices, steps)
        if vec is not None:
            for key in solves:
                solves[key] += vec.counters[key]
    return solves


def test_soups_exercise_reach_and_rows():
    """Over the seeded sample, reach decides some solves and path rows
    settle others, both in lockstep with the reference."""
    solves = _sampled_solves()
    assert solves["reach_solves"] > 0 and solves["row_solves"] > 0, solves


@pytest.mark.parametrize("numpy_min", [0, 1 << 30], ids=["numpy", "python"])
def test_soups_exercise_either_branch(numpy_min, monkeypatch):
    """The seeded sample with every CCC forced through one branch of the
    vector engine runs both kinds of solve there, in lockstep."""
    monkeypatch.setattr(vector_mod, "_NUMPY_MIN_DEVICES", numpy_min)
    solves = _sampled_solves()
    assert solves["reach_solves"] > 0 and solves["row_solves"] > 0, solves


def _lockstep(devices, steps):
    """Run both engines on one soup, asserting identity after every
    settle; returns the vector engine, or ``None`` for an empty soup."""
    flat = _build(devices)
    if flat is None:
        return None
    ref, vec = _engines(flat)
    nets = sorted(flat.nets)
    for step, (net, action) in enumerate(steps):
        _apply(ref, net, action)
        _apply(vec, net, action)
        ref_osc = vec_osc = False
        try:
            ref_events = ref.settle(max_events=500)
        except OscillationError:
            ref_osc = True
        try:
            vec_events = vec.settle(max_events=500)
        except OscillationError:
            vec_osc = True
        assert ref_osc == vec_osc, step
        if ref_osc:
            # Both diverged at the same budget; the pre-raise trace
            # must still agree, then the network is unusable.
            assert ref.history == vec.history
            return vec
        assert ref_events == vec_events, step
        for name in nets:
            rs, vs = ref.state[name], vec.state[name]
            assert rs.value is vs.value, (step, name)
            assert rs.driven == vs.driven, (step, name)
    assert ref.history == vec.history
    for key in ("ccc_evaluations", "net_solves", "naive_net_solves",
                "solve_count", "skip_count"):
        assert ref.counters[key] == vec.counters[key], key
    assert (vec.counters["reach_solves"] + vec.counters["row_solves"]
            == vec.counters["solve_count"])
    return vec
