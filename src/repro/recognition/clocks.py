"""Clock-net inference.

Paper section 4.3: "The automatic recognition of state-elements,
clocking nodes, glitch sensitive nodes, and data nodes is essential."

Clock nets are found in two steps:

1. **Structural seeds** -- the precharge/footer signature: a net that
   gates a PMOS tied to vdd *and* an NMOS inside the same CCC is the
   classic domino clock pattern.  User-supplied hints (the one piece of
   designer intent every real methodology accepts) are seeds too.
2. **Propagation** -- a recognized inverter or buffer whose sole input
   is a clock produces a (phase-tracked) clock at its output, so whole
   clock-distribution trees are classified from a single root.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.netlist.flatten import FlatNetlist
from repro.recognition.ccc import ChannelConnectedComponent
from repro.recognition.gates import recognize_static_gate


@dataclass
class ClockNet:
    """One net carrying a clock.

    Attributes
    ----------
    name:
        The net.
    root:
        The seed clock this net derives from.
    inverted:
        Phase relative to the root (True after an odd number of
        inversions).
    depth:
        Number of buffering stages from the root.
    """

    name: str
    root: str
    inverted: bool
    depth: int


def ccc_clock_seeds(ccc: ChannelConnectedComponent, gate_fn=None) -> set[str]:
    """Precharge + footer seeds contributed by one CCC.

    Purely topological, so :class:`~repro.recognition.memo.ClassificationMemo`
    caches the result per topology signature.
    """
    from repro.netlist.nets import is_rail_name
    from repro.recognition.conduction import conduction_paths

    if gate_fn is None:
        gate_fn = recognize_static_gate
    seeds: set[str] = set()
    checked: set[tuple[str, str]] = set()
    for p in ccc.pmos():
        terms = p.channel_terminals()
        if "vdd" not in terms:
            continue
        x = p.other_channel_terminal("vdd")
        g = p.gate
        if x in ("vdd", "gnd") or is_rail_name(g) or g in seeds:
            continue
        if (g, x) in checked:
            continue
        checked.add((g, x))
        # Ordinary complementary gate inputs also gate a P-to-vdd;
        # rule those out first.
        gate = gate_fn(ccc, x)
        if gate is not None and gate.complementary:
            continue
        # Demand a genuine evaluate stack: an all-NMOS path from the
        # precharged node to gnd that passes through a G-gated footer
        # *and* carries at least one data condition.  A plain
        # inverter (path = {G} alone) or a tgate detour (mixed
        # polarities) does not qualify.
        if conduction_paths(ccc, x, "gnd").of_polarity("nmos").footed_by(g):
            seeds.add(g)
    return seeds


def structural_clock_seeds(
    cccs: Iterable[ChannelConnectedComponent],
    gate_fn=None,
    seeds_fn=None,
) -> set[str]:
    """Nets matching the precharge + footer signature.

    A net G is a seed when, within one CCC:

    * G gates a PMOS whose channel ties some node X to vdd (precharge),
    * G also gates an NMOS whose channel reaches gnd (footer),
    * X is *not* a complementary static output (rules out ordinary gate
      inputs, which also gate a P-to-vdd and an N-to-gnd), and
    * X's pull-down network has data inputs besides G.

    Footless domino has no footer device and therefore needs a user
    hint; section 4.3's "reliability of recognizing circuit constraints"
    caveat applies.

    ``seeds_fn`` substitutes for :func:`ccc_clock_seeds` (the memoized
    variant caches per topology).
    """
    if seeds_fn is None:
        def seeds_fn(ccc):
            return ccc_clock_seeds(ccc, gate_fn=gate_fn)
    seeds: set[str] = set()
    for ccc in cccs:
        seeds |= seeds_fn(ccc)
    return seeds


def infer_clocks(
    flat: FlatNetlist,
    cccs: list[ChannelConnectedComponent],
    hints: Iterable[str] = (),
    gate_fn=None,
    seeds_fn=None,
) -> dict[str, ClockNet]:
    """Infer the design's clock nets.

    Returns a map net name -> :class:`ClockNet`.  Hinted nets become
    roots even without the structural signature; structural seeds are
    their own roots.  ``gate_fn``/``seeds_fn`` substitute for
    :func:`recognize_static_gate` / :func:`ccc_clock_seeds` (see
    :mod:`repro.recognition.memo`).
    """
    if gate_fn is None:
        gate_fn = recognize_static_gate
    clocks: dict[str, ClockNet] = {}
    roots = set(hints) | structural_clock_seeds(
        cccs, gate_fn=gate_fn, seeds_fn=seeds_fn)
    for net in sorted(roots):
        clocks[net] = ClockNet(name=net, root=net, inverted=False, depth=0)

    # Single-input static gates (inverters/buffers), keyed by input net.
    stages: dict[str, list[tuple[str, bool]]] = {}
    for ccc in cccs:
        # Dangling outputs (no gate load yet) still count as stages so a
        # partially assembled clock tree classifies correctly.
        for out in ccc.output_nets or ccc.channel_nets:
            gate = gate_fn(ccc, out)
            if gate is None or not gate.complementary or len(gate.inputs) != 1:
                continue
            if gate.is_inverter():
                stages.setdefault(gate.inputs[0], []).append((out, True))
            elif gate.is_buffer():
                stages.setdefault(gate.inputs[0], []).append((out, False))

    frontier = sorted(clocks)
    while frontier:
        next_frontier: list[str] = []
        for net in frontier:
            info = clocks[net]
            for out, inverts in stages.get(net, []):
                if out in clocks:
                    continue
                clocks[out] = ClockNet(
                    name=out,
                    root=info.root,
                    inverted=info.inverted ^ inverts,
                    depth=info.depth + 1,
                )
                next_frontier.append(out)
        frontier = next_frontier
    return clocks
