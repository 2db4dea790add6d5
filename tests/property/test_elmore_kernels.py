"""Property tests: the O(N) Elmore kernels agree with the references.

``elmore_all`` computes every node's delay in two linear passes; its
contract is exact agreement with the per-node ``elmore_delay`` (both
accumulate R * downstream-C root-to-leaf) and numerical agreement with
``tests.oracles.reference_elmore_delay`` (the original per-query
kernel, which sums the same products in a different association
order).  Random tree
shapes, section counts, and R/C values probe both.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.extraction.rctree import RCTree, uniform_ladder
from tests.oracles import reference_elmore_delay


@st.composite
def random_tree(draw):
    """An RC tree with random topology and element values."""
    n = draw(st.integers(1, 24))
    tree = RCTree("root")
    names = ["root"]
    for i in range(n):
        parent = names[draw(st.integers(0, len(names) - 1))]
        name = f"n{i}"
        tree.add_node(
            name, parent,
            resistance=draw(st.floats(1.0, 5e3)),
            cap=draw(st.floats(1e-16, 5e-13)),
        )
        names.append(name)
    extra_caps = draw(st.integers(0, 4))
    for _ in range(extra_caps):
        tree.add_cap(names[draw(st.integers(0, len(names) - 1))],
                     draw(st.floats(1e-16, 1e-13)))
    return tree


@given(random_tree(), st.floats(0.0, 1e4))
@settings(max_examples=60, deadline=None)
def test_elmore_all_equals_per_node_queries(tree, r_drive):
    delays = tree.elmore_all(driver_resistance=r_drive)
    assert set(delays) == set(tree.nodes())
    for node in tree.nodes():
        assert delays[node] == tree.elmore_delay(node, driver_resistance=r_drive)


@given(random_tree(), st.floats(0.0, 1e4))
@settings(max_examples=60, deadline=None)
def test_elmore_all_matches_naive_reference(tree, r_drive):
    delays = tree.elmore_all(driver_resistance=r_drive)
    for node in tree.nodes():
        reference = reference_elmore_delay(tree, node,
                                           driver_resistance=r_drive)
        assert delays[node] == pytest.approx(reference, rel=1e-9, abs=1e-30)


@given(random_tree())
@settings(max_examples=40, deadline=None)
def test_mutation_invalidates_caches(tree):
    """Add a node after querying: every kernel sees the new topology."""
    before = tree.elmore_all()
    tree.add_node("late", "root", resistance=123.0, cap=1e-14)
    after = tree.elmore_all()
    assert set(after) == set(before) | {"late"}
    for node in after:
        assert after[node] == tree.elmore_delay(node)


@given(st.integers(1, 64))
@settings(max_examples=20, deadline=None)
def test_ladder_worst_is_last_tap(sections):
    tree = uniform_ladder(sections, total_resistance=10.0 * sections,
                          total_cap=1e-14 * sections)
    node, delay = tree.worst_elmore()
    delays = tree.elmore_all()
    assert delay == max(delays.values())
    assert delays[node] == delay
