"""A miniature full-custom datapath slice: the flagship workload.

Composes the library's circuit styles the way a real ALPHA/StrongARM
execution slice did:

* a **register file** (latch storage + pass-gate read muxes),
* a **domino carry adder** doing the math under a clock,
* **static decode** (NAND/NOR) steering the operand muxes,
* a **two-phase output latch** capturing the result,
* optionally a small **clock buffer tree** feeding the whole slice.

The generator returns both the transistor-level cell and a matching
behavioral reference (:class:`MiniCoreReference`), so the same object
drives switch-level functional tests, shadow-mode simulation, and the
full CBV campaign -- the complete section-4 program on one design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.designs.adders import adder_reference
from repro.netlist.builder import CellBuilder
from repro.netlist.cell import Cell


@dataclass
class MiniCore:
    """The generated slice plus its interface inventory."""

    cell: Cell
    width: int
    entries: int


def mini_core(width: int = 2, entries: int = 2, name: str = "minicore") -> MiniCore:
    """Build the slice.

    Ports
    -----
    ``clk`` / ``clk_b``          two-phase clock (evaluate / precharge)
    ``d<b>``                     write-port data into the register file
    ``we<r>`` / ``we_b<r>``      one-hot write enables
    ``ra<r>`` / ``rb<r>``        one-hot read selects for operands A and B
    ``cin``                      carry in
    ``r<b>``                     latched result
    ``cout``                     carry out
    """
    if width < 1 or entries < 1:
        raise ValueError("mini core needs width >= 1 and entries >= 1")
    ports = ["clk", "clk_b", "cin", "cout"]
    ports += [f"d{b}" for b in range(width)]
    for r in range(entries):
        ports += [f"we{r}", f"we_b{r}", f"ra{r}", f"rb{r}"]
    ports += [f"r{b}" for b in range(width)]
    b = CellBuilder(name, ports=ports)

    # ---- register file: per entry per bit, a transparent latch; two
    # read buses (A and B operands) through pass devices.
    a_ops: list[str] = []
    b_ops: list[str] = []
    for bit in range(width):
        bus_a = b.net(f"busA{bit}")
        bus_b = b.net(f"busB{bit}")
        for r in range(entries):
            store = b.transparent_latch(
                f"d{bit}", b.net(f"q{r}_{bit}"), f"we{r}", f"we_b{r}")
            b.nmos_pass(store, bus_a, f"ra{r}", w=3.0)
            b.nmos_pass(store, bus_b, f"rb{r}", w=3.0)
        # Restore the reduced-swing buses.  The latch stores d itself,
        # so one inverter gives the complement and two give the value.
        a_inv, a_val = b.net(f"ai{bit}"), b.net(f"av{bit}")
        b.inverter(bus_a, a_inv)
        b.inverter(a_inv, a_val)
        b_inv, b_val = b.net(f"bi{bit}"), b.net(f"bv{bit}")
        b.inverter(bus_b, b_inv)
        b.inverter(b_inv, b_val)
        a_ops.append(a_val)
        b_ops.append(b_val)

    # ---- domino carry chain with static sums (as in the adder design).
    carry = "cin"
    sums: list[str] = []
    for bit in range(width):
        a, bb_ = a_ops[bit], b_ops[bit]
        g_b, g = b.net("gb"), b.net("g")
        b.nand([a, bb_], g_b)
        b.inverter(g_b, g)
        nor_ab, p_or = b.net("nor"), b.net("p")
        b.nor([a, bb_], nor_ab)
        b.inverter(nor_ab, p_or)
        cout_i = "cout" if bit == width - 1 else b.net("cy")
        dyn, foot, mid = b.net("dyn"), b.net("ft"), b.net("pm")
        b.pmos("clk", dyn, "vdd", w=4.0)
        b.nmos(g, dyn, foot, w=6.0)
        b.nmos(p_or, dyn, mid, w=6.0)
        b.nmos(carry, mid, foot, w=6.0)
        b.nmos("clk", foot, "gnd", w=6.0)
        b.nmos(dyn, cout_i, "gnd", w=3.0)
        b.pmos(dyn, cout_i, "vdd", w=6.0)
        b.pmos(cout_i, dyn, "vdd", w=0.4)  # keeper
        axb = b.net("x")
        b.nor([g, nor_ab], axb)
        s1, s2, s3, s_net = b.net("s"), b.net("s"), b.net("s"), b.net("sum")
        b.nand([axb, carry], s1)
        b.nand([axb, s1], s2)
        b.nand([carry, s1], s3)
        b.nand([s2, s3], s_net)
        sums.append(s_net)
        carry = cout_i

    # ---- output latches: transparent during evaluate (clk high), so
    # they hold the computed sums through the following precharge.
    for bit in range(width):
        b.transparent_latch(sums[bit], f"r_pre{bit}", "clk", "clk_b")
        # The latch inverts; restore polarity into the result port.
        b.inverter(f"r_pre{bit}", f"r{bit}")

    return MiniCore(cell=b.build(), width=width, entries=entries)


class MiniCoreReference:
    """Cycle-approximate behavioral reference of the slice.

    Tracks the register file contents and computes what the latched
    result should be for a given pair of read selects -- the RTL model
    the circuit is "loosely equivalent" to.
    """

    def __init__(self, width: int = 2, entries: int = 2):
        self.width = width
        self.entries = entries
        self.regs: list[int | None] = [None] * entries

    def write(self, entry: int, value: int) -> None:
        self.regs[entry] = value & ((1 << self.width) - 1)

    def result(self, ra: int, rb: int, cin: int) -> tuple[int | None, int | None]:
        a = self.regs[ra]
        bb = self.regs[rb]
        if a is None or bb is None:
            return None, None
        # The read path inverts twice and the output latch + inverter
        # cancel: the result is simply the sum.
        total, carry = adder_reference(a, bb, cin, self.width)
        return total, carry
