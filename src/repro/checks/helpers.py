"""Shared electrical helpers for the check battery."""

from __future__ import annotations

from repro.extraction.annotate import AnnotatedDesign
from repro.netlist.devices import Transistor
from repro.recognition.ccc import ChannelConnectedComponent
from repro.recognition.conduction import ConductionPath, PathSet, conduction_paths


def device_map(annotated: AnnotatedDesign) -> dict[str, Transistor]:
    return {t.name: t for t in annotated.flat.transistors}


def path_resistance(path: ConductionPath, annotated: AnnotatedDesign,
                    devices: dict[str, Transistor]) -> float:
    """On-resistance of a fully conducting path at the context corner."""
    total = 0.0
    for name in path.devices:
        total += annotated.on_resistance(devices[name])
    return total


def best_resistance(paths: list[ConductionPath], annotated: AnnotatedDesign,
                    devices: dict[str, Transistor]) -> float:
    """Resistance of the strongest (least resistive) path."""
    return min(path_resistance(p, annotated, devices) for p in paths)


def worst_resistance(paths: list[ConductionPath], annotated: AnnotatedDesign,
                     devices: dict[str, Transistor]) -> float:
    """Resistance of the weakest (most resistive) path."""
    return max(path_resistance(p, annotated, devices) for p in paths)


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
    tech = annotated.technology
    vdd = tech.vdd_at(annotated.corner)
    down = conduction_paths(ccc, net, "gnd").paths()
    total = 0.0
    seen_first: set[str] = set()
    for path in down:
        first = path.devices[0]
        if first in seen_first:
            continue
        seen_first.add(first)
        t = devices[first]
        model = tech.mosfet(t.polarity, annotated.corner)
        total += model.leakage(vdd, t.w_um, t.effective_length(tech.l_min_um))
    return total
