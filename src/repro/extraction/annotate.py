"""Merging wire parasitics with device loading.

Section 4.3's delay-accuracy list starts with "Accuracy of minimum and
maximum capacitance calculation (fixed, coupling, and transistor
input)".  :func:`annotate` produces, per net, the *total* capacitance
bounds: extracted wire (ground + coupling) plus every gate and junction
the net touches, evaluated from the technology at a corner.

The result, :class:`AnnotatedDesign`, is the one object the timing
verifier and the electrical check battery both consume -- the paper's
"extracted interconnect parasitic capacitance and resistance data".
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.extraction.caps import NetParasitics, Parasitics
from repro.netlist.devices import Transistor
from repro.netlist.flatten import FlatNetlist
from repro.process.corners import Corner
from repro.process.technology import Technology


@dataclass
class NetLoad:
    """Total electrical load of one net at a corner."""

    net: str
    wire: NetParasitics
    gate_cap_f: float = 0.0
    junction_cap_f: float = 0.0
    extra_cap_f: float = 0.0  # explicit capacitors in the netlist

    def device_cap(self) -> float:
        return self.gate_cap_f + self.junction_cap_f + self.extra_cap_f

    def total_min(self, miller_min: float = 0.0) -> float:
        return self.wire.cap_min(miller_min) + self.device_cap()

    def total_max(self, miller_max: float = 2.0) -> float:
        return self.wire.cap_max(miller_max) + self.device_cap()

    def total_nominal(self) -> float:
        return self.wire.cap_nominal() + self.device_cap()

    def coupling_fraction(self) -> float:
        total = self.total_nominal()
        if total <= 0:
            return 0.0
        return self.wire.total_coupling().nominal / total


@dataclass
class AnnotatedDesign:
    """A flat netlist plus per-net loads at one corner.

    ``ron_table`` maps each device shape ``(polarity, W, L_eff)`` to its
    switching resistance at this corner; :meth:`on_resistance` fills it
    on first use.
    """

    flat: FlatNetlist
    technology: Technology
    corner: Corner
    loads: dict[str, NetLoad] = field(default_factory=dict)
    ron_table: dict[tuple[str, float, float], float] = field(
        default_factory=dict, repr=False, compare=False)

    def load(self, net: str) -> NetLoad:
        if net not in self.loads:
            self.loads[net] = NetLoad(net=net, wire=NetParasitics(net=net))
        return self.loads[net]

    def on_resistance(self, device: Transistor) -> float:
        """Switching resistance of ``device`` at this corner (ohms).

        A full-custom design stamps a handful of device shapes hundreds
        of times, so the table is keyed by shape *value*: each shape
        costs one :meth:`~repro.process.mosfet.MosfetModel.on_resistance`
        evaluation per corner, and an in-place resize reads a new key
        instead of a stale entry.
        """
        tech = self.technology
        l_eff = device.effective_length(tech.l_min_um)
        key = (device.polarity, device.w_um, l_eff)
        r_on = self.ron_table.get(key)
        if r_on is None:
            model = tech.mosfet(device.polarity, self.corner)
            r_on = model.on_resistance(tech.vdd_at(self.corner),
                                       device.w_um, l_eff)
            self.ron_table[key] = r_on
        return r_on


def annotate(
    flat: FlatNetlist,
    parasitics: Parasitics,
    technology: Technology,
    corner: Corner = Corner.TYPICAL,
) -> AnnotatedDesign:
    """Combine wire parasitics with device loading for every net."""
    design = AnnotatedDesign(flat=flat, technology=technology, corner=corner)
    _load_nets(design, flat.nets, parasitics.of)
    return design


def update_net_loads(design: AnnotatedDesign, nets: Iterable[str]) -> int:
    """Recompute the device-load half of the given nets in place.

    After an in-place device resize (:func:`repro.timing.sizing.size_path`)
    only the nets on a resized device's terminals see their gate/junction
    caps move; this recomputes exactly those, keeping each net's wire
    parasitics (widths never enter the wireload model).  It loads them
    through the same body as :func:`annotate`, so the refreshed loads are
    bit-identical to a full re-annotation -- which is what lets the
    incremental timing path reuse them.

    Returns the number of nets refreshed.
    """
    def kept_wire(name: str) -> NetParasitics:
        old = design.loads.get(name)
        return old.wire if old is not None else NetParasitics(net=name)

    return _load_nets(design, nets, kept_wire)


def _load_nets(design: AnnotatedDesign, nets: Iterable[str],
               wire_of: Callable[[str], NetParasitics]) -> int:
    """Store a fresh :class:`NetLoad` for each of ``nets`` in ``design``.

    A load is the net's wire (``wire_of(net)``), every gate and junction
    on its pins in pin order, and its explicit capacitors to a rail.
    Names ``design.flat`` does not know are skipped; returns the number
    of nets loaded.
    """
    flat = design.flat
    technology = design.technology
    corner = design.corner
    by_name = {t.name: t for t in flat.transistors}
    caps_by_net: dict[str, list] = {}
    for cap in flat.capacitors:
        caps_by_net.setdefault(cap.a, []).append(cap)
        caps_by_net.setdefault(cap.b, []).append(cap)
    loaded = 0
    for name in nets:
        net = flat.nets.get(name)
        if net is None:
            continue
        load = NetLoad(net=name, wire=wire_of(name))
        for pin in net.pins:
            device = by_name.get(pin.device)
            if device is None:
                continue  # capacitor/resistor pins carry no device cap here
            model = technology.mosfet(device.polarity, corner)
            l_eff = device.effective_length(technology.l_min_um)
            if pin.terminal == "gate":
                load.gate_cap_f += model.gate_capacitance(device.w_um, l_eff)
            else:
                load.junction_cap_f += model.diffusion_capacitance(device.w_um)
        # Explicit netlist capacitors to a rail count as fixed load.
        for cap in caps_by_net.get(name, []):
            other = cap.b if cap.a == name else cap.a
            if other in ("vdd", "gnd"):
                load.extra_cap_f += cap.cap_f
        design.loads[name] = load
        loaded += 1
    return loaded
