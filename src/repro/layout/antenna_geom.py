"""Antenna geometry: per-net charge-collection accounting.

During metal etch, a long wire connected to a gate (but not yet to any
diffusion that could bleed charge away) collects plasma charge in
proportion to its area; the gate oxide underneath sees the resulting
voltage.  The antenna *ratio* -- exposed conductor area over connected
gate area -- is what the section-4.2 "antenna checks" bound.

This module computes the geometric inputs from a :class:`~repro.layout.
geometry.Layout`; the pass/fail policy lives in
:mod:`repro.checks.antenna`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.layout.geometry import Layout
from repro.netlist.flatten import FlatNetlist


@dataclass
class AntennaGeometry:
    """Charge-collection geometry of one net.

    Attributes
    ----------
    net:
        Net name.
    metal_area_um2:
        Total wire area on etched conductor layers connected to the net.
    gate_area_um2:
        Total gate (poly over channel) area the net drives.
    has_diffusion:
        True when the net also contacts source/drain diffusion, which
        provides a discharge path during processing and waives the check.
    """

    net: str
    metal_area_um2: float
    gate_area_um2: float
    has_diffusion: bool

    def ratio(self) -> float:
        """Antenna ratio; infinite for a gate-only net with metal."""
        if self.gate_area_um2 <= 0.0:
            return 0.0
        return self.metal_area_um2 / self.gate_area_um2


def antenna_geometry(
    layout: Layout,
    flat: FlatNetlist,
    l_min_um: float = 0.35,
    metal_layers: tuple[str, ...] = ("metal1", "metal2", "metal3"),
) -> list[AntennaGeometry]:
    """Antenna accounting for every net that drives at least one gate."""
    # Each (net, layer)'s rectangle areas in layout order, gathered in
    # one pass: the per-layer sums add them in that order.
    areas: dict[tuple[str, str], list[float]] = {}
    for r in layout.rects:
        areas.setdefault((r.net, r.layer), []).append(r.area())
    out: list[AntennaGeometry] = []
    for net in sorted(flat.nets):
        flat_net = flat.nets[net]
        gate_pins = flat_net.gate_pins()
        if not gate_pins or flat_net.is_rail:
            continue
        gate_area = 0.0
        for pin in gate_pins:
            device = flat.transistor(pin.device)
            gate_area += device.w_um * device.effective_length(l_min_um)
        metal_area = sum(sum(areas.get((net, layer), ()))
                         for layer in metal_layers)
        has_diffusion = bool(flat_net.channel_pins())
        out.append(AntennaGeometry(
            net=net,
            metal_area_um2=metal_area,
            gate_area_um2=gate_area,
            has_diffusion=has_diffusion,
        ))
    return out
