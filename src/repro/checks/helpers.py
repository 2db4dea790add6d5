"""Shared electrical helpers for the check battery."""

from __future__ import annotations

from repro.extraction.annotate import AnnotatedDesign
from repro.netlist.devices import Transistor
from repro.recognition.ccc import ChannelConnectedComponent
from repro.recognition.conduction import PathSet, conduction_paths


def device_map(annotated: AnnotatedDesign) -> dict[str, Transistor]:
    return {t.name: t for t in annotated.flat.transistors}


def device_resistances(names: list[str], annotated: AnnotatedDesign,
                       devices: dict[str, Transistor]) -> list[float]:
    """On-resistance of each named device at the context corner: pass a
    path set's ``device_names`` to get values by slot, which
    ``PathSet.sums`` adds in path order into each path's resistance."""
    return list(map(annotated.on_resistance, map(devices.__getitem__, names)))


def pull_paths(ccc: ChannelConnectedComponent,
               net: str) -> tuple[PathSet, PathSet]:
    """(pull-down paths to gnd, pull-up paths to vdd)."""
    return conduction_paths(ccc, net, "gnd"), conduction_paths(ccc, net, "vdd")


def off_network_leakage(
    ccc: ChannelConnectedComponent,
    net: str,
    annotated: AnnotatedDesign,
    devices: dict[str, Transistor],
) -> float:
    """Worst single-path subthreshold leakage out of ``net`` toward gnd.

    The dominant term is the least-resistive all-off path; summing the
    first device of each distinct path approximates the parallel
    leakage of the off pull-down network.
    """
    down = conduction_paths(ccc, net, "gnd")
    if not down:
        return 0.0
    tech = annotated.technology
    vdd = tech.vdd_at(annotated.corner)
    names = down.device_names
    total = 0.0
    # Each distinct first device once, in the order the paths list
    # them: the per-pair walk leaves ``net`` through its devices in
    # reversed ``ccc.transistors`` order, i.e. by descending slot.
    for slot in sorted(set(down.chains()[:, 0].tolist()), reverse=True):
        t = devices[names[slot]]
        model = tech.mosfet(t.polarity, annotated.corner)
        total += model.leakage(vdd, t.w_um, t.effective_length(tech.l_min_um))
    return total
