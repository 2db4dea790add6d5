"""Tests for the chip-scale composite design generator."""

import pytest

from repro.designs import ChipScale, chip_scale
from repro.netlist.flatten import flatten
from repro.switchsim import VectorSwitchSimulator


def test_rejects_tiny_targets():
    with pytest.raises(ValueError, match="at least 200"):
        chip_scale(100)


@pytest.mark.parametrize("target", [1000, 5000])
def test_hits_transistor_target(target):
    cs = chip_scale(target)
    assert isinstance(cs, ChipScale)
    flat = flatten(cs.cell)
    n = len(flat.transistors)
    # Tiling can only land within one tile (plus clock retrofit) of the
    # target; 10% is far looser than the plan ever misses by.
    assert abs(n - target) <= 0.1 * target, n
    assert sum(cs.tile_counts.values()) >= 3
    assert all(cs.tile_counts[k] >= 1 for k in ("minicore", "regfile",
                                                "sram"))


def test_deterministic_for_a_target():
    a = flatten(chip_scale(1000).cell)
    b = flatten(chip_scale(1000).cell)
    assert [t.name for t in a.transistors] == [t.name for t in b.transistors]
    assert sorted(a.nets) == sorted(b.nets)


def test_testbench_inventory_is_drivable_and_observable():
    cs = chip_scale(1000)
    flat = flatten(cs.cell)
    assert cs.clock_port == "clk_in"
    assert cs.clock_port in cs.stimulus_ports
    for p in cs.stimulus_ports + cs.output_ports + cs.word_lines:
        assert p in flat.ports, p
    # Every tile exports at least one observable output.
    tags = {p.split("_")[0] for p in cs.output_ports if p.startswith("t")}
    assert len(tags) >= sum(cs.tile_counts.values()) - cs.tile_counts["sram"]


def test_clock_edge_reaches_minicore_tiles():
    """Toggling the root clock must propagate through the tree."""
    cs = chip_scale(300)
    flat = flatten(cs.cell)
    sim = VectorSwitchSimulator(flat)
    for p in cs.stimulus_ports:
        sim.drive(p, 0)
    sim.settle()
    before = [sim.value(n) for n in flat.nets if n.endswith("_clk_b")]
    sim.drive("clk_in", 1)
    sim.settle()
    after = [sim.value(n) for n in flat.nets if n.endswith("_clk_b")]
    assert before and before != after
