"""Fingerprint invalidation semantics: an edit invalidates exactly the
stages whose declared inputs changed."""

import dataclasses

from repro.core.campaign import DesignBundle
from repro.core.stages import STAGES, FlowStage
from repro.netlist.builder import CellBuilder
from repro.process.technology import strongarm_technology
from repro.store import design_fingerprint, stage_keys
from repro.store.fingerprint import (
    fingerprint_callable,
    fingerprint_cell_geometry,
    fingerprint_cell_topology,
)
from repro.timing.clocking import TwoPhaseClock


def small_cell():
    b = CellBuilder("dp", ports=["a", "b", "c", "y", "q", "clk", "clk_b"])
    b.nand(["a", "b"], "n1")
    b.inverter("n1", "and_ab")
    b.nor(["and_ab", "c"], "y")
    b.transparent_latch("y", "q", "clk", "clk_b")
    return b.build()


def make_bundle(**overrides):
    defaults = dict(
        name="dp",
        cell=small_cell(),
        technology=strongarm_technology(),
        clock=TwoPhaseClock(period_s=6.25e-9, non_overlap_s=0.1e-9),
        clock_hints=("clk", "clk_b"),
        rtl_intent={"y": lambda a, b, c: not ((a and b) or c)},
        rtl_inputs={"y": ("a", "b", "c")},
        use_layout=False,
    )
    defaults.update(overrides)
    return DesignBundle(**defaults)


def changed_stages(base: DesignBundle, edited: DesignBundle) -> set[FlowStage]:
    k0 = stage_keys(base)
    k1 = stage_keys(edited)
    return {stage for stage in k0 if k0[stage] != k1[stage]}


def test_identical_bundles_share_every_key():
    assert changed_stages(make_bundle(), make_bundle()) == set()


def test_every_executed_stage_has_declared_inputs():
    # BEHAVIORAL_RTL is the paper's upstream input, not a stage the
    # campaign executes; every stage run() can reach has a dependency set
    assert set(STAGES) == set(FlowStage) - {FlowStage.BEHAVIORAL_RTL}


def test_device_resize_invalidates_everything():
    cell = small_cell()
    cell.transistors[0].w_um *= 2
    assert changed_stages(make_bundle(), make_bundle(cell=cell)) \
        == set(STAGES)


def test_pessimism_tweak_invalidates_timing_only():
    base = make_bundle()
    edited = make_bundle(pessimism=dataclasses.replace(
        base.pessimism, derate_max=base.pessimism.derate_max * 1.01))
    assert changed_stages(base, edited) == {FlowStage.TIMING_VERIFICATION}


def test_rtl_edit_invalidates_logic_only():
    edited = make_bundle(rtl_intent={"y": lambda a, b, c: not (a and b)},
                         rtl_inputs={"y": ("a", "b", "c")})
    assert changed_stages(make_bundle(), edited) \
        == {FlowStage.LOGIC_VERIFICATION}


def test_clock_period_leaves_structure_alone():
    edited = make_bundle(clock=TwoPhaseClock(period_s=5.0e-9,
                                             non_overlap_s=0.1e-9))
    assert changed_stages(make_bundle(), edited) == {
        FlowStage.CIRCUIT_VERIFICATION, FlowStage.TIMING_VERIFICATION}


def test_mode_switch_invalidates_electrical_stages():
    changed = changed_stages(make_bundle(use_layout=False),
                             make_bundle(use_layout=True))
    assert FlowStage.LAYOUT in changed
    assert FlowStage.EXTRACTION in changed
    assert FlowStage.SCHEMATIC not in changed
    assert FlowStage.RECOGNITION not in changed
    assert FlowStage.LOGIC_VERIFICATION not in changed


def test_topology_ignores_device_rename_order_not_structure():
    """Reordering definitions of *distinct* devices changes nothing;
    the topology digest walks cells in sorted order."""
    c1 = small_cell()
    c2 = small_cell()
    c2.transistors.reverse()
    # element order within a cell is declaration order and is part of
    # the netlist's identity (the writer emits it); topology must still
    # treat the same set of devices on the same nets as equal
    assert fingerprint_cell_topology(c1) != "" \
        and fingerprint_cell_geometry(c1) != ""
    # same content, same digests, regardless of Python object identity
    assert fingerprint_cell_topology(c1) == \
        fingerprint_cell_topology(small_cell())
    assert fingerprint_cell_geometry(c1) == \
        fingerprint_cell_geometry(small_cell())


def test_callable_fingerprint_sees_code_not_name():
    f1 = lambda a, b: a and b      # noqa: E731
    f2 = lambda a, b: a and b      # noqa: E731
    f3 = lambda a, b: a or b       # noqa: E731
    assert fingerprint_callable(f1) == fingerprint_callable(f2)
    assert fingerprint_callable(f1) != fingerprint_callable(f3)
    # captured constants matter too
    def make(k):
        return lambda a: a == k
    assert fingerprint_callable(make(1)) != fingerprint_callable(make(2))


def test_combined_fingerprint_changes_with_any_component():
    base = design_fingerprint(make_bundle())
    cell = small_cell()
    cell.transistors[0].w_um *= 2
    edited = design_fingerprint(make_bundle(cell=cell))
    assert base.combined != edited.combined
    assert base.components["topology"] == edited.components["topology"]
    assert base.components["geometry"] != edited.components["geometry"]
