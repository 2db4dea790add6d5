"""Complementary static gate recognition.

Given a CCC with one output, decide whether it is a complementary CMOS
gate (an N pull-down network to gnd and a P pull-up network to vdd whose
conduction functions are exact complements) and, if so, extract its
boolean function from topology alone -- the paper's replacement for a
cell library's pre-declared meanings.

The extracted function is stored as a truth-table bitmask over a sorted
input list, the common currency shared with :mod:`repro.equivalence`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.recognition.ccc import ChannelConnectedComponent
from repro.recognition.conduction import PathSet, conduction_paths


@dataclass
class RecognizedGate:
    """A recognized complementary static gate.

    Attributes
    ----------
    output:
        The output net.
    inputs:
        Sorted input net names (the truth table's variable order;
        ``inputs[0]`` is the least-significant bit).
    table:
        Output truth table as a bitmask over input mintERMS: bit i gives
        the *output* value (already inverted from pull-down conduction).
    complementary:
        True when pull-up conduction was verified to be the exact
        complement of pull-down conduction.  False marks ratioed or
        otherwise non-complementary structures that still have a defined
        pull-down function.
    """

    output: str
    inputs: list[str]
    table: int
    complementary: bool

    def evaluate(self, assignment: dict[str, bool]) -> bool:
        """Output value under a complete input assignment."""
        idx = 0
        for k, name in enumerate(self.inputs):
            if name not in assignment:
                raise KeyError(f"gate input {name!r} missing from assignment")
            if assignment[name]:
                idx |= 1 << k
        return bool((self.table >> idx) & 1)

    def is_inverter(self) -> bool:
        return len(self.inputs) == 1 and self.table == 0b01

    def is_buffer(self) -> bool:
        return len(self.inputs) == 1 and self.table == 0b10

    def function_name(self) -> str:
        """A human-readable name for common functions, else 'complex'."""
        n = len(self.inputs)
        size = 1 << n
        full = (1 << size) - 1
        and_table = 1 << (size - 1)
        or_table = full & ~1
        if self.table == full & ~and_table:
            return "nand" if n > 1 else "inv"
        if self.table == 1:
            return "nor" if n > 1 else "inv"
        if self.table == and_table:
            return "and"
        if self.table == or_table:
            return "or"
        if n == 1 and self.table == 0b01:
            return "inv"
        if n == 1 and self.table == 0b10:
            return "buf"
        return "complex"


def drive_pull_paths(
    ccc: ChannelConnectedComponent,
    output: str,
) -> tuple[PathSet, PathSet]:
    """(pull-down, pull-up) paths that actually *drive* ``output``.

    Paths that detour through another output net of the CCC (a pass
    gate into a neighbouring storage node, a shared bus) are not part of
    this output's driving structure; they are excluded here and handled
    by the pass/latch analyses instead.
    """
    others = ccc.output_nets - {output}
    return (conduction_paths(ccc, output, "gnd").avoiding(others),
            conduction_paths(ccc, output, "vdd").avoiding(others))


def recognize_static_gate(
    ccc: ChannelConnectedComponent,
    output: str,
    max_inputs: int = 12,
) -> RecognizedGate | None:
    """Try to recognize ``output`` as a complementary static gate output.

    Returns None when the structure is not gate-like at all (no pull-down
    network, pass-transistor outputs, multi-output tangles where the
    pull-networks share devices with other outputs).  Returns a
    :class:`RecognizedGate` with ``complementary=False`` for ratioed
    structures (pull-up exists but is not the complement).
    """
    # A complementary gate pulls down through NMOS only and up through
    # PMOS only, and only through its own driving structure -- paths
    # detouring through pass gates or other outputs that merged into
    # this CCC are dropped (the "loosely equivalent" reading of 4.1).
    raw_down, raw_up = drive_pull_paths(ccc, output)
    down_paths = raw_down.of_polarity("nmos")
    up_paths = raw_up.of_polarity("pmos")
    if not down_paths or not up_paths:
        return None

    down_support = down_paths.support()
    up_support = up_paths.support()
    inputs = sorted(down_support | up_support)
    if len(inputs) > max_inputs:
        return None
    if output in inputs:
        # Feedback onto own gate (keeper/latch) -- not a simple gate.
        return None

    down_table = down_paths.truth_table(inputs)
    up_table = up_paths.truth_table(inputs)
    size = 1 << len(inputs)
    full = (1 << size) - 1

    complementary = (down_table ^ up_table) == full and down_support == up_support
    output_table = full & ~down_table  # output is high when not pulled down
    return RecognizedGate(
        output=output,
        inputs=inputs,
        table=output_table,
        complementary=complementary,
    )
