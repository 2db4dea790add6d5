"""Switch-level simulation of transistor netlists.

Paper section 4.1 lists "standalone schematic simulation" as one of the
four levels of logic verification.  This package provides it: an
event-driven, conservative 3-value (0 / 1 / X) switch-level simulator
that operates directly on the recognized channel-connected components --
no cell library, no pre-characterized primitives.

Key behaviours the full-custom circuit styles require:

* **charge retention** -- a channel net with no conducting path to any
  source keeps its last value, so dynamic nodes and pass-gate latches
  simulate correctly;
* **ratio resolution** -- when pull-up and pull-down fight (keepers,
  SRAM writes, ratioed logic), the winner is decided by path conductance
  with a configurable dominance ratio, else X;
* **pessimistic X handling** -- a path whose gate conditions involve X
  is "possibly conducting"; a node that might be disturbed resolves to X
  rather than silently keeping a clean value.

Two engines implement the same semantics over one
:class:`PackedSwitchTables` build: the pure-Python reference
(:class:`SwitchSimulator`, authoritative) and the numpy-batched
:class:`VectorSwitchSimulator`, bit-identical and much faster on large
designs.  Both take the same constructor arguments; pick one by class.
"""

from repro.switchsim.values import Logic, NetState
from repro.switchsim.engine import OscillationError, SwitchSimulator
from repro.switchsim.tables import PackedSwitchTables
from repro.switchsim.vector import VectorSwitchSimulator
from repro.switchsim.vcd import export_vcd

__all__ = [
    "Logic",
    "NetState",
    "SwitchSimulator",
    "VectorSwitchSimulator",
    "PackedSwitchTables",
    "OscillationError",
    "export_vcd",
]
