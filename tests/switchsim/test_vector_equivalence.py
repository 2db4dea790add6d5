"""Vector engine ≡ reference engine over every seed design.

The vector engine's contract (DESIGN.md, "Vector switch-sim engine") is
*bit identity*, not mere equivalence: same ``Logic`` per net, same
driven flags, same history stream in the same order, same settle()
return values, same shared counters, same oscillation behaviour.  This
harness drives both engines with identical seeded-random stimulus
(drives of 0/1/X and releases on every port) across the whole
``repro.designs`` library and checks all of it after every settle.
"""

import random
import zlib

import pytest

from repro.designs.adders import domino_carry_adder, ripple_carry_adder
from repro.designs.cam import cam_array
from repro.designs.clocktree import clock_tree
from repro.designs.dcvsl import dcvsl_and_or, dcvsl_xor
from repro.designs.latch_zoo import (
    dynamic_latch,
    jamb_latch,
    pulsed_latch,
    sr_nand_latch,
)
from repro.designs.manchester import manchester_carry_chain
from repro.designs.minicore import mini_core
from repro.designs.muxes import pass_mux_tree
from repro.designs.regfile import register_file
from repro.designs.sram import sram_array
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.switchsim import (
    Logic,
    OscillationError,
    PackedSwitchTables,
    SwitchSimulator,
    VectorSwitchSimulator,
)
from repro.switchsim import vector as vector_mod

# Counters both engines must agree on (the vector engine adds its own
# vector_* keys on top; those are not part of the identity contract).
SHARED_COUNTERS = (
    "ccc_evaluations",
    "net_solves",
    "naive_net_solves",
    "settle_calls",
    "solve_count",
    "skip_count",
)

SEED_DESIGNS = {
    "ripple_adder": lambda: ripple_carry_adder(width=2),
    "domino_adder": lambda: domino_carry_adder(width=2),
    "manchester": lambda: manchester_carry_chain(width=3),
    "dcvsl_xor": dcvsl_xor,
    "dcvsl_and_or": dcvsl_and_or,
    "sram": lambda: sram_array(rows=2, cols=2),
    "cam": lambda: cam_array(entries=2, width=2),
    "regfile": lambda: register_file(entries=2, width=2),
    "mux_tree": lambda: pass_mux_tree(depth=2),
    "clock_tree": lambda: clock_tree(levels=2, branching=2)[0],
    "dynamic_latch": dynamic_latch,
    "jamb_latch": jamb_latch,
    "pulsed_latch": pulsed_latch,
    "sr_nand_latch": sr_nand_latch,
    "minicore": lambda: mini_core(width=2, entries=2).cell,
}


def _assert_lockstep(ref, vec, flat, context):
    for name in sorted(flat.nets):
        rs = ref.state[name]
        vs = vec.state[name]
        assert rs.value is vs.value, (context, name, rs, vs)
        assert rs.driven == vs.driven, (context, name, rs, vs)


def _random_stimulus_run(flat, seed, steps=40):
    ref = SwitchSimulator(flat)
    vec = VectorSwitchSimulator(flat)
    ports = sorted(p for p in flat.ports if p not in ("vdd", "gnd"))
    assert ports, "design has no drivable ports"
    rng = random.Random(seed)
    for step in range(steps):
        net = rng.choice(ports)
        roll = rng.random()
        if roll < 0.15:
            ref.release(net)
            vec.release(net)
        else:
            value = rng.choice((0, 1, 0, 1, Logic.X))
            ref.drive(net, value)
            vec.drive(net, value)
        assert ref.settle() == vec.settle(), step
        _assert_lockstep(ref, vec, flat, step)
    assert ref.history == vec.history
    for key in SHARED_COUNTERS:
        assert ref.counters[key] == vec.counters[key], key
    # Incremental accounting must add up identically in both engines.
    for sim in (ref, vec):
        assert (sim.counters["solve_count"] + sim.counters["skip_count"]
                == sim.counters["naive_net_solves"])


@pytest.mark.parametrize("name", sorted(SEED_DESIGNS))
def test_vector_matches_reference_on_seed_design(name):
    flat = flatten(SEED_DESIGNS[name]())
    for seed in (1, 2):
        _random_stimulus_run(flat, seed=hash((name, seed)) & 0xFFFF)


@pytest.mark.parametrize("numpy_min", [0, 1 << 30], ids=["numpy", "python"])
def test_either_branch_matches_reference_on_seed_designs(numpy_min,
                                                         monkeypatch):
    """Every seed design again, with every CCC forced through one branch
    of the vector engine: the batched numpy pass, or the per-CCC Python
    one (which, under ``_NUMPY_MIN_DEVICES`` devices, all of them take
    by default)."""
    monkeypatch.setattr(vector_mod, "_NUMPY_MIN_DEVICES", numpy_min)
    for name in sorted(SEED_DESIGNS):
        flat = flatten(SEED_DESIGNS[name]())
        for seed in (1, 2):
            _random_stimulus_run(
                flat, seed=zlib.crc32(f"{name}:{seed}".encode()))


def test_vector_oscillation_detection_matches():
    """A ring oscillator must raise in both engines at the same budget."""
    b = CellBuilder("ring", ports=["en"])
    b.nand(["en", "r2"], "r0")
    b.inverter("r0", "r1")
    b.inverter("r1", "r2")
    flat = flatten(b.build())
    ref = SwitchSimulator(flat)
    vec = VectorSwitchSimulator(flat)
    for sim in (ref, vec):
        sim.drive("en", 0)  # settles: r0=1, r1=0, r2=1
        sim.settle()
    for sim in (ref, vec):
        sim.drive("en", 1)  # closes the loop: never settles
    with pytest.raises(OscillationError):
        ref.settle(max_events=200)
    with pytest.raises(OscillationError):
        vec.settle(max_events=200)
    assert ref.counters["net_solves"] == vec.counters["net_solves"]
    assert ref.history == vec.history


@pytest.mark.parametrize("engine", [SwitchSimulator, VectorSwitchSimulator],
                         ids=["scalar", "vector"])
def test_prebuilt_tables_are_shareable_and_fingerprinted(engine):
    flat = flatten(SEED_DESIGNS["sram"]())
    tables = PackedSwitchTables.build(flat, l_min_um=0.35)
    a = engine(flat, tables=tables)
    b = engine(flat, tables=tables)
    assert a.tables is b.tables is tables
    a.drive("wl0", 1)
    a.settle()
    # Sharing tables must not share dynamic state.
    assert b.value("wl0") is Logic.X
    # A geometry mutation (what a sizing loop does) must be caught;
    # the fingerprint memo is epoch-keyed, so the edit is declared.
    flat.transistors[0].w_um *= 2.0
    flat.note_mutation()
    assert not tables.matches(flat, 0.35)
    with pytest.raises(ValueError, match="stale"):
        engine(flat, tables=tables)
