"""Property tests: the target-rooted sweep ≡ the per-pair DFS oracle.

The target-rooted sweep (:func:`sweep_paths_to_target`) is the engine
behind ``conduction_paths``.  Its contract is *bit-identity*: for every
(source, target) pair the ``PathSet``'s paths, materialized
(:func:`tests.oracles.materialize`), must match the per-pair walk
(:func:`tests.oracles.enumerate_pair`) element-for-element -- same
devices, same conditions, same **order** -- because the packed switch
tables lay a pair's paths out in that order; and every
order-free ``PathSet`` query must equal its oracle on those paths.

Hypothesis drives random transistor soups (cycles, pass-gate meshes,
self-gated channels, floating nets) through every (source, target)
pair of every CCC, on both sweep strategies (Python DFS and vectorized
BFS), including the exact overflow error when a tiny ``max_paths`` cap
is exceeded.  A chip-scale differential test covers every channel net
against the rails and ports of a ~1k-device design.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.designs import chip_scale
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.recognition import conduction
from repro.recognition.ccc import extract_cccs
from repro.recognition.conduction import (
    conduction_paths,
    sweep_paths_to_target,
)
from tests.oracles import enumerate_pair, materialize
from tests.recognition.test_pathset import assert_queries_match

PORTS = ["p0", "p1", "p2"]
INTERNAL = ["x0", "x1", "x2", "x3"]
NETS = PORTS + INTERNAL + ["vdd", "gnd"]
WIDTHS = [1.0, 2.0, 4.0]

transistor = st.tuples(
    st.sampled_from(["nmos", "pmos"]),
    st.sampled_from(NETS),                 # gate (rail gates allowed)
    st.sampled_from(NETS),                 # drain
    st.sampled_from(NETS),                 # source
    st.sampled_from(WIDTHS),
)

network = st.lists(transistor, min_size=2, max_size=9)


def _cccs(devices):
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
        return []
    return extract_cccs(flatten(cell))


def _endpoints(ccc):
    return sorted(ccc.channel_nets) + ["vdd", "gnd"]


def _oracle(ccc, src, tgt, max_paths):
    """(paths, error-str) from the per-pair DFS oracle."""
    try:
        return enumerate_pair(ccc, src, tgt, max_paths), None
    except RuntimeError as err:
        return None, str(err)


def _check_pair(ccc, src, tgt, max_paths, via):
    expected, expected_err = _oracle(ccc, src, tgt, max_paths)
    try:
        got, got_err = conduction_paths(ccc, src, tgt, max_paths), None
    except RuntimeError as err:
        got, got_err = None, str(err)
    assert got_err == expected_err, (via, src, tgt)
    if expected is not None:
        # Element-for-element: devices, conditions, and ordering.
        assert list(materialize(got)) == expected, (via, src, tgt)
        assert_queries_match(ccc, got)


@given(network)
@settings(max_examples=80, deadline=None)
def test_conduction_paths_matches_per_pair_dfs(devices):
    """``conduction_paths`` over every pair of distinct nets == the
    oracle, each pair's sweep started on demand by its first query."""
    for ccc in _cccs(devices):
        for src in _endpoints(ccc):
            for tgt in _endpoints(ccc):
                if src == tgt:
                    continue
                _check_pair(ccc, src, tgt, 10000, via="sweep")


@given(network)
@settings(max_examples=80, deadline=None)
def test_target_rooted_sweep_matches_per_pair_dfs(devices):
    """A pre-installed target-rooted sweep answers every source
    identically to the oracle (ports and internal nets too)."""
    for ccc in _cccs(devices):
        nets = _endpoints(ccc)
        for tgt in nets:
            sweep_paths_to_target(ccc, tgt, 10000)
            for src in nets:
                if src == tgt:
                    continue
                _check_pair(ccc, src, tgt, 10000, via="tsweep")


@given(network)
@settings(max_examples=60, deadline=None)
def test_vectorized_bfs_sweep_matches_per_pair_dfs(devices):
    """The level-synchronous BFS strategy (used above
    ``_BFS_MIN_DEVICES``) is interchangeable with the DFS: force it on
    for these small soups and demand the same per-pair bit-identity."""
    threshold = conduction._BFS_MIN_DEVICES
    try:
        conduction._BFS_MIN_DEVICES = 0
        for ccc in _cccs(devices):
            nets = _endpoints(ccc)
            for tgt in nets:
                sweep_paths_to_target(ccc, tgt, 10000)
                for src in nets:
                    if src == tgt:
                        continue
                    _check_pair(ccc, src, tgt, 10000, via="bfs")
    finally:
        conduction._BFS_MIN_DEVICES = threshold


@given(network, st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_bfs_overflow_parity_at_tiny_caps(devices, max_paths):
    """Overflow accounting (bucket drops, the ``want`` raise, and the
    exact message) is strategy-independent."""
    threshold = conduction._BFS_MIN_DEVICES
    try:
        conduction._BFS_MIN_DEVICES = 0
        for ccc in _cccs(devices):
            for src in _endpoints(ccc):
                for tgt in _endpoints(ccc):
                    if src == tgt:
                        continue
                    _check_pair(ccc, src, tgt, max_paths, via="bfs-ovf")
    finally:
        conduction._BFS_MIN_DEVICES = threshold


@given(network, st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_overflow_parity_at_tiny_caps(devices, max_paths):
    """When a pair exceeds ``max_paths`` both routes raise the same
    error; when it doesn't, both return identical lists -- the cap must
    never silently truncate or reorder."""
    for ccc in _cccs(devices):
        for src in _endpoints(ccc):
            for tgt in _endpoints(ccc):
                if src == tgt:
                    continue
                _check_pair(ccc, src, tgt, max_paths, via="overflow")


def test_source_equals_target_raises():
    """A loop back to the source joins no two nets; no consumer asks
    for one, and the sweep's visited-set discipline cannot express it."""
    b = CellBuilder("loop", ports=["a", "en"])
    b.nmos("en", "a", "x0", w=2.0)
    b.nmos("en", "x0", "a", w=2.0)
    ccc = extract_cccs(flatten(b.build()))[0]
    with pytest.raises(ValueError, match="'a' twice"):
        conduction_paths(ccc, "a", "a")
    # The oracle keeps its loop-path semantics: the loop both ways.
    loops = enumerate_pair(ccc, "a", "a")
    assert sorted(p.devices for p in loops) == [("mn1", "mn2"),
                                                ("mn2", "mn1")]


def test_cache_hit_counter_moves():
    b = CellBuilder("inv", ports=["a", "y"])
    b.inverter("a", "y")
    ccc = extract_cccs(flatten(b.build()))[0]
    conduction_paths(ccc, "y", "gnd")
    before = conduction.enumeration_counters()["path_cache_hits"]
    conduction_paths(ccc, "y", "gnd")
    after = conduction.enumeration_counters()["path_cache_hits"]
    assert after == before + 1


@pytest.mark.parametrize("max_paths", [1, 10000])
def test_overflow_message_matches_legacy_exactly(max_paths):
    """The sweep path's overflow error is byte-for-byte the per-pair
    walk's message (tools match on it)."""
    b = CellBuilder("par", ports=["x", "y", "e0", "e1"])
    b.nmos("e0", "x", "y", w=2.0)
    b.nmos("e1", "x", "y", w=2.0)
    flat = flatten(b.build())
    if max_paths >= 2:  # two parallel paths: no overflow at the default
        ccc = extract_cccs(flat)[0]
        pair = conduction_paths(ccc, "x", "y", max_paths)
        assert len(materialize(pair)) == 2
        return
    legacy_msg = sweep_msg = None
    try:
        enumerate_pair(extract_cccs(flat)[0], "x", "y", max_paths)
    except RuntimeError as err:
        legacy_msg = str(err)
    try:
        conduction_paths(extract_cccs(flat)[0], "x", "y", max_paths)
    except RuntimeError as err:
        sweep_msg = str(err)
    assert legacy_msg is not None and sweep_msg == legacy_msg


def test_chip_scale_pairs_match_per_pair_dfs():
    """Differential at bench scale: on ``chip_scale(1000)`` every channel
    net against each rail and each other port of its CCC -- the pairs
    production asks for -- equals the oracle.  Both 48-device CCCs
    there take the vectorized BFS side of ``_BFS_MIN_DEVICES``."""
    flat = flatten(chip_scale(1000).cell)
    cccs = extract_cccs(flat)
    assert any(len(c.transistors) >= conduction._BFS_MIN_DEVICES
               for c in cccs)
    pairs = 0
    for ccc in cccs:
        ports = sorted(n for n in ccc.channel_nets if flat.nets[n].is_port)
        for net in sorted(ccc.channel_nets):
            for tgt in ["vdd", "gnd"] + ports:
                if tgt == net:
                    continue
                assert (list(materialize(conduction_paths(ccc, net, tgt)))
                        == enumerate_pair(ccc, net, tgt)), (net, tgt)
                pairs += 1
    assert pairs > 900
