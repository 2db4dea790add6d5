"""Setup-path tests: template stamping and CCC sharing.

The packed-table builder stamps name-free CCC templates and rides
target-rooted path sweeps; this file pins the invariant that makes that
safe -- the stamped arrays and gate-update maps are **byte-identical**
to a per-instance build from per-pair walks
(:func:`tests.oracles.direct_tables`, :func:`tests.oracles.condition_groups`),
path overflow included -- plus the vector engine's condition counters
against a recount, the cache-sharing contracts (`DesignCache.cccs`,
`switch_tables`) and a chip-scale reference-vs-vector regression.
"""

import numpy as np
import pytest

from repro.designs import chip_scale
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.netlist.nets import is_rail_name
from repro.perf.cache import DesignCache
from repro.recognition import conduction
from repro.switchsim import SwitchSimulator, VectorSwitchSimulator
from repro.switchsim import tables as tables_mod
from repro.switchsim.tables import PackedSwitchTables
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
    """Paths gated only by rails, and nets with no path at all: no
    condition to group, so the gate-update maps stay empty."""
    b = CellBuilder("ungated", ports=["a"])
    b.nmos("vdd", "y", "gnd", w=1.0)
    b.nmos("a", "x0", "x1", w=1.0)
    cell = b.build()
    tables = PackedSwitchTables.build(flatten(cell))
    assert tables.path_src.size and not tables.cond_gate.size
    assert tables.net_cond_all == {} and tables.net_cond_int == {}
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


def recount(sim):
    """Each path's blocking and unknown condition counts, recounted
    from the conditions CSR and the simulator's current net values."""
    tables = sim.tables
    gv = sim._val[tables.cond_gate]
    bad = np.where(tables.cond_level == 1, gv == 0, gv == 1)
    n_paths = tables.path_src.size
    return (np.bincount(tables.cond_path, weights=bad,
                        minlength=n_paths).astype(np.int32),
            np.bincount(tables.cond_path, weights=gv == 2,
                        minlength=n_paths).astype(np.int32))


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


def tiled_case():
    return tiled_cell(), [
        [("d", 0), ("en", 0), ("en_b", 1)], [("en", 1), ("en_b", 0)],
        [("d", 1)], [("en", 0), ("en_b", 1)], [("d", 0)]]


def chip_case():
    cs = chip_scale(1000)
    return cs.cell, lcg_plan(cs, 777)


@pytest.mark.parametrize("case", [tiled_case, chip_case],
                         ids=["tiled-slices", "chipscale-1000"])
def test_condition_counters_match_a_recount(case):
    """The vector engine seeds its per-path condition counters without
    reading a gate, then shifts them on every net change: after
    construction and after every settle they equal a recount."""
    cell, plan = case()
    sim = VectorSwitchSimulator(flatten(cell))
    tables = sim.tables
    # The seeding relies on this: no condition gates on a rail.
    assert not any(is_rail_name(tables.net_names[g])
                   for g in np.unique(tables.cond_gate).tolist())
    n_bad, n_unk = recount(sim)
    assert np.array_equal(sim._n_bad, n_bad)
    assert np.array_equal(sim._n_unk, n_unk)
    for drives in plan:
        for net, value in drives:
            sim.drive(net, value)
        sim.settle(max_events=5_000_000)
        n_bad, n_unk = recount(sim)
        assert np.array_equal(sim._n_bad, n_bad)
        assert np.array_equal(sim._n_unk, n_unk)
    assert sim.counters["solve_count"] > 0


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


def test_chipscale_vector_matches_reference_bit_for_bit():
    """The tier-1 guard for the whole setup path: a chip-scale design
    built through the shared cache must simulate bit-identically to the
    scalar reference engine.  (CHIPSCALE_REF_TARGET=10000 runs the full
    10k comparison; 1k is the always-on tier.)"""
    import os

    target = int(os.environ.get("CHIPSCALE_REF_TARGET", "1000"))
    cs = chip_scale(target)
    flat = flatten(cs.cell)
    cache = DesignCache()
    ref = SwitchSimulator(flat, cache=cache)
    vec = VectorSwitchSimulator(flat, cache=cache)
    for drives in lcg_plan(cs, 12345):
        for net, value in drives:
            ref.drive(net, value)
            vec.drive(net, value)
        ref.settle(max_events=5_000_000)
        vec.settle(max_events=5_000_000)
        nets = sorted(flat.nets)
        assert [ref.value(n) for n in nets] == [vec.value(n) for n in nets]
