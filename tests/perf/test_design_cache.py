"""Tests for the session DesignCache and counter aggregation."""

import pytest

from repro.designs.adders import domino_carry_adder
from repro.netlist.flatten import flatten
from repro.perf import DesignCache, collect_counters
from repro.process.corners import Corner
from repro.process.technology import strongarm_technology


def _flat(width=2):
    return flatten(domino_carry_adder(width))


def test_recognized_is_cached_by_identity():
    cache = DesignCache()
    flat = _flat()
    d1 = cache.recognized(flat)
    d2 = cache.recognized(flat)
    assert d1 is d2
    assert cache.hits == 1 and cache.misses == 1
    # A different netlist object (same contents) is a different key.
    other = _flat()
    d3 = cache.recognized(other)
    assert d3 is not d1
    assert cache.misses == 2


def test_recognized_keyed_by_clock_hints():
    cache = DesignCache()
    flat = _flat()
    plain = cache.recognized(flat)
    hinted = cache.recognized(flat, clock_hints=("clk",))
    assert hinted is not plain
    assert cache.recognized(flat, clock_hints=["clk"]) is hinted


def test_parasitics_and_annotated_cached():
    cache = DesignCache()
    flat = _flat()
    tech = strongarm_technology()
    p = cache.parasitics(flat, tech)
    assert cache.parasitics(flat, tech) is p
    a_typ = cache.annotated(flat, p, tech, Corner.TYPICAL)
    assert cache.annotated(flat, p, tech, Corner.TYPICAL) is a_typ
    assert cache.annotated(flat, p, tech, Corner.FAST) is not a_typ


def test_shared_memo_spans_designs():
    """The second topologically-equal design classifies via the memo."""
    cache = DesignCache()
    cache.recognized(_flat())
    misses_after_first = cache.memo.classify_misses
    cache.recognized(_flat())
    assert cache.memo.classify_misses == misses_after_first
    assert cache.memo.classify_hits > 0


def test_switch_tables_cached_and_fingerprint_invalidated():
    cache = DesignCache()
    flat = _flat()
    t1 = cache.switch_tables(flat)
    assert cache.switch_tables(flat) is t1
    assert cache.hits == 1 and cache.misses == 1
    # A different l_min is a different artifact.
    t2 = cache.switch_tables(flat, l_min_um=0.5)
    assert t2 is not t1
    # In-place geometry mutation (a sizing loop) must force a rebuild
    # even though the netlist object identity is unchanged.  Geometry
    # edits don't rewire, so the mutator declares them explicitly.
    flat.transistors[0].w_um *= 2.0
    flat.note_mutation()
    t3 = cache.switch_tables(flat)
    assert t3 is not t1
    assert t3.matches(flat, 0.35)
    # The rebuilt tables drive the vector engine on the mutated design.
    from repro.switchsim import VectorSwitchSimulator

    vec = VectorSwitchSimulator(flat, tables=t3)
    assert vec.tables is t3


def test_collect_counters_merges_and_coerces():
    class Src:
        def counters(self):
            return {"b": 2}

    merged = collect_counters({"a": 1}, None, Src(), {"c": 3.5})
    assert merged == {"a": 1.0, "b": 2.0, "c": 3.5}
    assert all(isinstance(v, float) for v in merged.values())
    # Two sources setting one key is refused, not silently overwritten.
    with pytest.raises(ValueError, match="'b'"):
        collect_counters({"a": 1}, Src(), {"b": 3.5})


def test_counters_include_memo():
    cache = DesignCache()
    cache.recognized(_flat())
    counters = cache.counters()
    assert counters["cache_misses"] == 1
    assert "classify_misses" in counters
