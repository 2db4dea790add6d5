"""SRAM arrays: the cache-leakage workload of paper section 3.

A rows x cols array of 6T cells sharing bitlines per column and word
lines per row, with optional channel lengthening applied to every array
device -- the exact knob DEC turned on the StrongARM caches.
"""

from __future__ import annotations

from repro.netlist.builder import CellBuilder
from repro.netlist.cell import Cell


def sram_array(
    rows: int = 4,
    cols: int = 4,
    l_add_um: float = 0.0,
    name: str = "sram",
) -> Cell:
    """Build a rows x cols 6T array.

    Ports: ``wl<r>`` per row, ``bl<c>`` / ``bl_b<c>`` per column.
    ``l_add_um`` lengthens every array transistor (0.045 / 0.09 in the
    paper's process).
    """
    if rows < 1 or cols < 1:
        raise ValueError("array needs at least one row and column")
    ports = [f"wl{r}" for r in range(rows)]
    for c in range(cols):
        ports += [f"bl{c}", f"bl_b{c}"]
    b = CellBuilder(name, ports=ports)
    for r in range(rows):
        for c in range(cols):
            b.sram_cell(f"bl{c}", f"bl_b{c}", f"wl{r}", l_add=l_add_um)
    return b.build()


def array_nmos_width_um(rows: int, cols: int,
                        w_pull: float = 2.0, w_access: float = 1.2) -> float:
    """Total NMOS width of an array (for leakage-region accounting)."""
    return rows * cols * (2 * w_pull + 2 * w_access)
