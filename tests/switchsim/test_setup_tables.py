"""Setup-path tests: template stamping and CCC sharing.

The packed-table builder stamps name-free CCC templates and rides
target-rooted path sweeps; this file pins the invariant that makes that
safe -- the stamped arrays are **byte-identical** to a per-instance
build from per-pair walks (:func:`tests.oracles.direct_tables`) -- plus
the cache-sharing contracts (`DesignCache.cccs`, `switch_tables`) and a
chip-scale reference-vs-vector regression.
"""

import pytest

from repro.designs import chip_scale
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.perf.cache import DesignCache
from repro.switchsim import SwitchSimulator
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
    sim = SwitchSimulator(flat, engine="reference", cache=cache)
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
    ref = SwitchSimulator(flat, engine="reference", cache=cache)
    vec = SwitchSimulator(flat, engine="vector", cache=cache)

    state = 12345

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

    for drives in plans:
        for net, value in drives:
            ref.drive(net, value)
            vec.drive(net, value)
        ref.settle(max_events=5_000_000)
        vec.settle(max_events=5_000_000)
        nets = sorted(flat.nets)
        assert [ref.value(n) for n in nets] == [vec.value(n) for n in nets]
