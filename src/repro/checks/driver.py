"""One-call construction of a check context from a flat netlist."""

from __future__ import annotations

from collections.abc import Iterable

from repro.checks.base import CheckContext, CheckSettings
from repro.extraction.annotate import annotate
from repro.extraction.caps import Parasitics
from repro.extraction.wireload import WireloadModel
from repro.layout.antenna_geom import AntennaGeometry
from repro.netlist.flatten import FlatNetlist
from repro.process.corners import Corner
from repro.process.technology import Technology
from repro.recognition.recognizer import RecognizedDesign, recognize
from repro.timing.clocking import TwoPhaseClock


def make_context(
    flat: FlatNetlist,
    technology: Technology,
    clock: TwoPhaseClock | None = None,
    clock_hints: Iterable[str] = (),
    parasitics: Parasitics | None = None,
    antenna: list[AntennaGeometry] | None = None,
    settings: CheckSettings | None = None,
    design: RecognizedDesign | None = None,
    cache=None,
) -> CheckContext:
    """Recognize, extract (wireload default), annotate, and bundle.

    ``design`` short-circuits recognition with a precomputed
    :class:`RecognizedDesign` (it must be for this ``flat``).  ``cache``
    is a :class:`repro.perf.DesignCache`: every derived artifact not
    explicitly supplied is obtained through it, so a session building
    many contexts over the same netlist derives each artifact once.
    """
    if design is None:
        if cache is not None:
            design = cache.recognized(flat, clock_hints=clock_hints)
        else:
            design = recognize(flat, clock_hints=clock_hints)
    if parasitics is None:
        if cache is not None:
            parasitics = cache.parasitics(flat, technology)
        else:
            parasitics = WireloadModel().extract(flat, technology.wires)
    if cache is not None:
        typical = cache.annotated(flat, parasitics, technology, Corner.TYPICAL)
        fast = cache.annotated(flat, parasitics, technology, Corner.FAST)
    else:
        typical = annotate(flat, parasitics, technology, Corner.TYPICAL)
        fast = annotate(flat, parasitics, technology, Corner.FAST)
    # The SLOW corner exists for the battery's setup/race check, which
    # only runs when a clock is declared; skip the annotation otherwise.
    slow = None
    if clock is not None:
        if cache is not None:
            slow = cache.annotated(flat, parasitics, technology, Corner.SLOW)
        else:
            slow = annotate(flat, parasitics, technology, Corner.SLOW)
    return CheckContext(
        design=design,
        typical=typical,
        fast=fast,
        slow=slow,
        clock=clock,
        antenna=antenna,
        settings=settings or CheckSettings(),
    )
