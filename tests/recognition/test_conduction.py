"""Unit tests for repro.recognition.conduction."""

import pytest

from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.recognition.ccc import extract_cccs
from repro.recognition.conduction import conduction_paths
from tests.oracles import conduction_function, materialize


def nand2_ccc():
    b = CellBuilder("nand2", ports=["a", "b", "y"])
    b.nand(["a", "b"], "y")
    return extract_cccs(flatten(b.build()))[0]


def test_nand_pull_down_single_series_path():
    ccc = nand2_ccc()
    down = materialize(conduction_paths(ccc, "y", "gnd"))
    assert len(down) == 1
    assert len(down[0].devices) == 2
    assert set(down[0].conditions) == {("a", True), ("b", True)}


def test_nand_pull_up_two_parallel_paths():
    ccc = nand2_ccc()
    up = materialize(conduction_paths(ccc, "y", "vdd"))
    assert len(up) == 2
    assert {p.conditions for p in up} == {(("a", False),), (("b", False),)}


def test_conduction_function_evaluation():
    ccc = nand2_ccc()
    down = conduction_paths(ccc, "y", "gnd")
    assert conduction_function(materialize(down), {"a": True, "b": True})
    assert not conduction_function(materialize(down), {"a": True, "b": False})
    # Missing assignments are conservatively non-conducting, in the
    # packed truth table too: with ``b`` outside the inputs the single
    # series path never conducts.
    assert not conduction_function(materialize(down), {"a": True})
    assert down.truth_table(["a"]) == 0


def test_contradictory_paths_dropped():
    """A path through both an NMOS and PMOS gated by the same net never
    conducts and must not be reported."""
    b = CellBuilder("tg", ports=["x", "y", "en"])
    # NMOS then PMOS in series, both gated by en: requires en=1 and en=0.
    b.nmos("en", "x", "mid", w=2.0)
    b.pmos("en", "mid", "y", w=2.0)
    ccc = extract_cccs(flatten(b.build()))[0]
    paths = conduction_paths(ccc, "x", "y")
    assert not paths
    assert materialize(paths) == ()


def test_transmission_gate_two_paths():
    b = CellBuilder("tg", ports=["x", "y", "en", "en_b"])
    b.transmission_gate("x", "y", "en", "en_b")
    ccc = extract_cccs(flatten(b.build()))[0]
    paths = conduction_paths(ccc, "x", "y")
    assert len(materialize(paths)) == 2
    assert paths.support() == {"en", "en_b"}


def test_truth_table_nand():
    ccc = nand2_ccc()
    down = conduction_paths(ccc, "y", "gnd")
    inputs = sorted(down.support())
    # Conduction only at a=b=1 (minterm 3): bitmask 0b1000.
    assert down.truth_table(inputs) == 0b1000


def test_truth_table_input_cap():
    ccc = nand2_ccc()
    down = conduction_paths(ccc, "y", "gnd")
    with pytest.raises(ValueError):
        down.truth_table([f"x{i}" for i in range(20)])


def test_paths_do_not_cross_rails():
    """Paths from output to gnd must not detour through vdd."""
    b = CellBuilder("inv", ports=["a", "y"])
    b.inverter("a", "y")
    ccc = extract_cccs(flatten(b.build()))[0]
    down = materialize(conduction_paths(ccc, "y", "gnd"))
    assert len(down) == 1
    assert down[0].conditions == (("a", True),)


def test_parallel_stack_path_count():
    """OR-type evaluate network: one path per parallel device."""
    b = CellBuilder("nor3", ports=["a", "b", "c", "y"])
    b.nor(["a", "b", "c"], "y")
    ccc = extract_cccs(flatten(b.build()))[0]
    down = materialize(conduction_paths(ccc, "y", "gnd"))
    assert len(down) == 3
