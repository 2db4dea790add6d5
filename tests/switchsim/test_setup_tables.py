"""Setup-path tests: template stamping and CCC sharing.

The packed-table builder stamps name-free CCC templates and rides
target-rooted path sweeps; this file pins the invariant that makes that
safe -- with every CCC stamped, the arrays are **byte-identical** to a
per-instance build from per-pair walks
(:func:`tests.oracles.direct_tables`), and the exact counts the build
reports without stamping match them, path overflow included -- plus
the cache-sharing contracts (`DesignCache.cccs`, `switch_tables`), a
chip-scale reference-vs-vector regression under two stimuli (also with
every CCC forced through either branch of the vector engine), the pass
schedule it speculates on, and which CCCs it stamps under
contention-free stimulus.
"""

import random

import pytest

from repro.designs import chip_scale
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.perf.cache import DesignCache
from repro.recognition import conduction
from repro.switchsim import SwitchSimulator, VectorSwitchSimulator
from repro.switchsim import tables as tables_mod
from repro.switchsim import vector as vector_mod
from repro.switchsim.tables import PackedSwitchTables
from perfbench.designs import chip_vectors
from tests.oracles import direct_tables, table_mismatches


def tiled_cell():
    """Many stamped copies of one slice -- the template cache's case."""
    slice_b = CellBuilder("bitslice", ports=["d", "en", "en_b", "q"])
    slice_b.transmission_gate("d", "m", "en", "en_b")
    slice_b.inverter("m", "q")
    slice_cell = slice_b.build()
    top = CellBuilder("tiled", ports=["d", "en", "en_b"]).build()
    for i in range(6):
        top.ports.append(f"q{i}")
        top.instantiate(f"s{i}", slice_cell, d="d", en="en", en_b="en_b",
                        q=f"q{i}")
    return top


@pytest.mark.parametrize("make_cell", [
    tiled_cell,
    lambda: chip_scale(300).cell,
    lambda: chip_scale(1000).cell,
], ids=["tiled-slices", "chipscale-300", "chipscale-1000"])
def test_template_build_byte_identical_to_direct(make_cell):
    cell = make_cell()
    new = PackedSwitchTables.build(flatten(cell))
    assert new.template_hits > 0  # the cache actually engaged
    assert table_mismatches(new, direct_tables(flatten(cell))) == []


def test_chunked_sweep_walk_byte_identical(monkeypatch):
    """A cell budget of a few chains splits every sweep walk into many
    chunks of whole positions; the tables must not change."""
    monkeypatch.setattr(tables_mod, "_WALK_CELLS", 16)
    cell = chip_scale(300).cell
    new = PackedSwitchTables.build(flatten(cell))
    assert table_mismatches(new, direct_tables(flatten(cell))) == []


def test_build_without_gate_conditions():
    """Paths gated only by rails, and nets with no path at all: paths
    without a single condition."""
    b = CellBuilder("ungated", ports=["a"])
    b.nmos("vdd", "y", "gnd", w=1.0)
    b.nmos("a", "x0", "x1", w=1.0)
    cell = b.build()
    tables = PackedSwitchTables.build(flatten(cell))
    counts = tables.counters()
    assert counts["packed_paths"] and not counts["packed_conditions"]
    assert table_mismatches(tables, direct_tables(flatten(cell))) == []


def ladder_cell(stages: int = 14):
    """``stages`` pairs of parallel NMOS in series from ``x`` to gnd:
    2**stages paths between them, past the 10,000-path cap."""
    gates = [f"g{k}{side}" for k in range(stages) for side in "ab"]
    b = CellBuilder("ladder", ports=["x", *gates])
    for k in range(stages):
        top = "x" if k == 0 else f"n{k}"
        bottom = "gnd" if k == stages - 1 else f"n{k + 1}"
        for side in "ab":
            b.nmos(f"g{k}{side}", top, bottom, w=1.0)
    return b.build()


@pytest.mark.parametrize("bfs", [False, True], ids=["dfs", "bfs"])
def test_path_overflow_raises_like_the_oracle(bfs, monkeypatch):
    """A CCC whose (net, source) pair exceeds the path cap fails the
    build with the oracle's message, whichever sweep strategy ran."""
    if bfs:
        monkeypatch.setattr(conduction, "_BFS_MIN_DEVICES", 0)
    expected = "between 'x' and 'gnd' exceeded 10000 paths"
    with pytest.raises(RuntimeError, match=expected):
        direct_tables(flatten(ladder_cell()))
    with pytest.raises(RuntimeError, match=expected):
        PackedSwitchTables.build(flatten(ladder_cell()))


def lcg_plan(cs, seed: int) -> list[list[tuple[str, int]]]:
    """Six steps of drives for a ``chip_scale`` design: every stimulus
    port low, then the clock toggling with a sparse LCG-drawn third of
    the other ports."""
    state = seed

    def lcg():
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return state

    plans = [[(p, 0) for p in cs.stimulus_ports]]
    for step in range(1, 6):
        drives = [(cs.clock_port, step % 2)]
        for p in cs.stimulus_ports:
            if p != cs.clock_port and lcg() % 3 == 0:
                drives.append((p, lcg() % 2))
        plans.append(drives)
    return plans


def test_fingerprint_memoized_per_epoch():
    flat = flatten(tiled_cell())
    fp1 = PackedSwitchTables.fingerprint_of(flat, 0.35)
    assert PackedSwitchTables.fingerprint_of(flat, 0.35) == fp1
    flat.transistors[0].w_um *= 2.0
    # Undeclared in-place edit: the memo (by design) still answers for
    # the current epoch...
    assert PackedSwitchTables.fingerprint_of(flat, 0.35) == fp1
    # ...until the mutation is declared.
    flat.note_mutation()
    assert PackedSwitchTables.fingerprint_of(flat, 0.35) != fp1


def test_design_cache_shares_cccs_across_consumers():
    flat = flatten(tiled_cell())
    cache = DesignCache()
    cccs = cache.cccs(flat)
    assert cache.cccs(flat) is cccs                      # stable
    assert cache.recognized(flat).classifications[0].ccc in cccs
    tables = cache.switch_tables(flat)
    assert tables.cccs is cccs                           # no re-extract
    sim = SwitchSimulator(flat, cache=cache)
    assert sim.cccs is cccs
    # Declared mutation invalidates the shared extraction.
    flat.note_mutation()
    assert cache.cccs(flat) is not cccs


def lcg_steps(cs):
    return [dict(drives) for drives in lcg_plan(cs, 12345)]


def chip_steps(cs):
    return chip_vectors(cs, random.Random(0))


STIMULI = pytest.mark.parametrize("steps", [lcg_steps, chip_steps],
                                  ids=["lcg_plan", "chip_vectors"])

#: ``_NUMPY_MIN_DEVICES`` forced so that every CCC takes one branch of
#: the vector engine: the batched numpy pass, or the per-CCC Python one.
BRANCHES = pytest.mark.parametrize("numpy_min", [0, 1 << 30],
                                   ids=["numpy", "python"])


def _chipscale_lockstep(steps) -> VectorSwitchSimulator:
    """A chip-scale design through both engines in lockstep, asserting
    bit identity; returns the vector engine."""
    import os

    target = int(os.environ.get("CHIPSCALE_REF_TARGET", "1000"))
    cs = chip_scale(target)
    flat = flatten(cs.cell)
    ref = SwitchSimulator(flat)
    vec = VectorSwitchSimulator(flat, cache=DesignCache())
    nets = sorted(flat.nets)
    for drives in steps(cs):
        for net in sorted(drives):
            ref.drive(net, drives[net])
            vec.drive(net, drives[net])
        assert (ref.settle(max_events=5_000_000)
                == vec.settle(max_events=5_000_000))
        assert [ref.state[n] for n in nets] == [vec.state[n] for n in nets]
    assert ref.history == vec.history
    for key in ("ccc_evaluations", "net_solves", "naive_net_solves",
                "settle_calls", "solve_count", "skip_count"):
        assert ref.counters[key] == vec.counters[key], key
    assert (vec.counters["reach_solves"] + vec.counters["row_solves"]
            == vec.counters["solve_count"])
    return vec


@STIMULI
def test_chipscale_vector_matches_reference_bit_for_bit(steps):
    """The tier-1 guard for the whole setup path: a chip-scale design
    built through the shared cache, its CCCs stamped only as solves need
    them, must simulate bit-identically to the scalar reference engine
    on a build of its own, under random drives (where the bus CCCs
    fight) and under perfbench's stimulus (where they never do).
    (CHIPSCALE_REF_TARGET=10000 runs the full 10k comparison; 1k is the
    always-on tier.)"""
    _chipscale_lockstep(steps)


@STIMULI
@BRANCHES
def test_chipscale_either_branch_matches_reference(steps, numpy_min,
                                                   monkeypatch):
    """The same guard with every CCC through one branch: the bus CCCs in
    Python, and the small CCCs in the batched pass."""
    monkeypatch.setattr(vector_mod, "_NUMPY_MIN_DEVICES", numpy_min)
    _chipscale_lockstep(steps)


@pytest.mark.parametrize("numpy_min", [None, 0, 1 << 30],
                         ids=["split", "numpy", "python"])
def test_chip_steps_pass_schedule_is_pinned(numpy_min, monkeypatch):
    """The speculation schedule of ``chip_scale(1000)`` under perfbench's
    stimulus, whichever branch evaluates the CCCs: how a CCC is
    evaluated must not change which CCCs each pass speculates on."""
    if numpy_min is not None:
        monkeypatch.setattr(vector_mod, "_NUMPY_MIN_DEVICES", numpy_min)
    cs = chip_scale(1000)
    sim = VectorSwitchSimulator(flatten(cs.cell), record_history=False)
    for drives in chip_steps(cs):
        for net in sorted(drives):
            sim.drive(net, drives[net])
        sim.settle()
    assert {key: sim.counters[key] for key in (
        "vector_passes", "vector_wasted_evals", "solve_count")} == {
        "vector_passes": 678, "vector_wasted_evals": 236,
        "solve_count": 6099}


def test_contention_free_stimulus_stamps_no_bus_ccc():
    """Under perfbench's stimulus no solve of the two largest template
    shapes (the bus and register-file CCCs) is left open by reach, so
    none of their CCCs is stamped, and stamping stays far below the
    table's exact path count."""
    cs = chip_scale(1000)
    sim = VectorSwitchSimulator(flatten(cs.cell), record_history=False)
    for drives in chip_steps(cs):
        for net in sorted(drives):
            sim.drive(net, drives[net])
        sim.settle()
    tables = sim.tables
    instances: dict[int, list[int]] = {}
    for idx, (tpl, _) in enumerate(tables._plan):
        instances.setdefault(id(tpl), []).append(idx)
    size = {key: int(tables._plan[idx[0]][0].row_path_counts.sum())
            for key, idx in instances.items()}
    largest = sorted(size, key=size.get)[-2:]
    assert all(not tables.ccc_stamped[i]
               for key in largest for i in instances[key])
    assert sim.counters["row_solves"] > 0
    assert 0 < tables.stamped_paths < tables.counters()["packed_paths"] // 4
