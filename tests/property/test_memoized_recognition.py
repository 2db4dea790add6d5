"""Property tests: memoized recognition is indistinguishable from fresh.

The contract for ``repro.recognition.memo`` (see its module docstring):
classification templates instantiated through the topology signature
must reproduce fresh recognition bit-for-bit -- same families, same
truth tables over the same input order, same dict insertion order, same
derived clock picks.  The strategies here stamp randomized mixes of the
design-zoo generators into one top cell so every run exercises template
reuse across instance-name prefixes (the exact situation the memo
exploits), then compare against ``recognize(memo=False)``.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.designs import chip_scale
from repro.designs.adders import domino_carry_adder, ripple_carry_adder
from repro.designs.latch_zoo import (
    dynamic_latch,
    jamb_latch,
    pulsed_latch,
    sr_nand_latch,
)
from repro.designs.muxes import pass_mux_tree
from repro.netlist.cell import Cell
from repro.netlist.flatten import flatten
from repro.recognition.ccc import extract_cccs
from repro.recognition.memo import ClassificationMemo
from repro.recognition.recognizer import RecognizedDesign, recognize
from repro.recognition.signature import topology_signature

GENERATORS = (
    dynamic_latch,
    jamb_latch,
    pulsed_latch,
    sr_nand_latch,
    lambda name: domino_carry_adder(2, name=name),
    lambda name: ripple_carry_adder(2, name=name),
    lambda name: pass_mux_tree(4, name=name),
)


@st.composite
def zoo_design(draw):
    """A top cell instantiating 1..4 random zoo cells side by side."""
    picks = draw(st.lists(st.integers(0, len(GENERATORS) - 1),
                          min_size=1, max_size=4))
    top = Cell(name="zoo_top", ports=["vdd", "gnd"])
    for k, g in enumerate(picks):
        child = GENERATORS[g](name=f"cell{k}_{g}")
        # Bind every port to a per-instance top net: repeated picks are
        # topologically identical but name-disjoint, which is exactly
        # the template-reuse situation the memo exploits.
        pins = {p: f"u{k}_{p}" for p in child.ports
                if p not in ("vdd", "gnd")}
        top.instantiate(f"u{k}", child, **pins)
    return top


def canon(design: RecognizedDesign):
    """Everything observable about a recognition result, order included."""
    return {
        "classifications": [
            (
                c.family,
                tuple(c.notes),
                tuple((out, tuple(g.inputs), g.table, g.complementary)
                      for out, g in c.gates.items()),
                tuple((out, tuple(d.precharge_devices),
                       tuple(d.foot_devices), tuple(sorted(d.eval_inputs)),
                       d.clock, tuple(d.keeper_devices))
                      for out, d in c.dynamic_nodes.items()),
                tuple(c.pass_pairs),
                tuple(sorted(c.cross_coupled_with)),
            )
            for c in design.classifications
        ],
        "gates": [(out, tuple(g.inputs), g.table, g.complementary)
                  for out, g in design.gates.items()],
        "dynamic": [(out, tuple(d.precharge_devices), tuple(d.foot_devices),
                     tuple(sorted(d.eval_inputs)), d.clock,
                     tuple(d.keeper_devices))
                    for out, d in design.dynamic_nodes.items()],
        "clocks": {n: (c.name, c.root, c.inverted, c.depth)
                   for n, c in design.clocks.items()},
        "storage": [(s.net, s.static, s.kind, tuple(s.write_devices),
                     s.partner, tuple(sorted(s.enables)))
                    for s in design.storage],
        "dcvsl": list(design.dcvsl_pairs),
        "kinds": dict(design.net_kinds),
    }


@given(zoo_design())
@settings(max_examples=40, deadline=None)
def test_memoized_equals_fresh(top):
    flat = flatten(top)
    fresh = recognize(flat, memo=False)
    memoized = recognize(flat, memo=ClassificationMemo())
    assert canon(memoized) == canon(fresh)


@given(zoo_design())
@settings(max_examples=25, deadline=None)
def test_warm_shared_memo_equals_fresh(top):
    """A memo warmed on one flatten instantiates correctly on another."""
    memo = ClassificationMemo()
    recognize(flatten(top), memo=memo)  # warm
    flat = flatten(top)                 # distinct netlist objects
    warm = recognize(flat, memo=memo)
    assert memo.classify_hits > 0, "warm run should hit the memo"
    assert canon(warm) == canon(recognize(flat, memo=False))


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_adder_slices_classify_once(width):
    """N topologically identical bit slices cost ~one classification."""
    memo = ClassificationMemo()
    design = recognize(flatten(domino_carry_adder(width)), memo=memo)
    fresh = recognize(design.flat, memo=False)
    assert canon(design) == canon(fresh)
    # Distinct topologies in a domino adder don't grow with width.
    assert memo.classify_misses <= 6
    if width > 1:
        assert memo.classify_hits > 0


def _assert_shape_cache_exact(flat) -> tuple[int, int]:
    """A signature served from the shape cache equals the computed one:
    key, net labels, and device slots.  Returns (shapes, CCCs)."""
    shapes: dict = {}
    cccs = extract_cccs(flat)
    for ccc in cccs + cccs:
        assert topology_signature(ccc, shapes) == topology_signature(ccc)
    return len(shapes), len(cccs)


@given(zoo_design())
@settings(max_examples=25, deadline=None)
def test_shape_cached_signatures_equal_computed(top):
    _assert_shape_cache_exact(flatten(top))


def test_shape_cached_signatures_equal_computed_at_chip_scale():
    n_shapes, n_cccs = _assert_shape_cache_exact(flatten(chip_scale(1000).cell))
    assert n_shapes * 4 < n_cccs
