"""The timing pipeline: one function every static timing run calls.

:func:`analyze_annotated` prices the arcs of a recognized design from
its FAST/SLOW annotations, builds the timing graph, generates the
constraints, declares the false paths and verifies.  It is the only
place in the package that does so; its callers differ only in the rules
they pass:

* the battery's setup/race check
  (:class:`~repro.checks.timing_sta.SetupRaceCheck`): default
  pessimism, no false paths;
* the CBV flow's timing stage (:mod:`repro.core.campaign`): the
  bundle's pessimism and false paths, through an
  :class:`~repro.timing.arccache.ArcPriceCache`;
* :func:`analyze_design`, for the feasibility study and the
  benchmarks: recognition, extraction (wireload by default) and
  annotation first, then the pipeline with whatever rules it is given.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.extraction.annotate import AnnotatedDesign, annotate
from repro.extraction.caps import Parasitics
from repro.extraction.wireload import WireloadModel
from repro.netlist.flatten import FlatNetlist
from repro.process.corners import Corner
from repro.process.technology import Technology
from repro.recognition.recognizer import RecognizedDesign, recognize
from repro.timing.analyzer import TimingAnalyzer, TimingReport
from repro.timing.clocking import TwoPhaseClock
from repro.timing.constraints import generate_constraints
from repro.timing.delay import ArcDelayCalculator
from repro.timing.graph import build_timing_graph
from repro.timing.pessimism import PessimismSettings


@dataclass
class TimingRun:
    """Everything a timing verification run built and found.

    ``analyzer`` stays live for incremental re-verification: re-price
    arcs (``timing.graph.reprice_arcs``) and call
    ``analyzer.verify(incremental=True)``; ``calculator`` is the pricing
    engine bound to the FAST/SLOW annotations below.
    """

    design: RecognizedDesign
    fast: AnnotatedDesign
    slow: AnnotatedDesign
    analyzer: TimingAnalyzer
    report: TimingReport
    calculator: ArcDelayCalculator


def analyze_annotated(
    design: RecognizedDesign,
    fast: AnnotatedDesign,
    slow: AnnotatedDesign,
    clock: TwoPhaseClock,
    *,
    pessimism: PessimismSettings | None = None,
    false_through: Iterable[str] = (),
    arc_cache=None,
) -> TimingRun:
    """Price, build the graph, constrain and verify one annotated design.

    ``pessimism`` widens both the arc delays and the constraint margins
    (default settings when None); ``false_through`` names the nets whose
    paths are architecturally false; ``arc_cache`` is an
    :class:`~repro.timing.arccache.ArcPriceCache` shared across builds
    so identical bit-slices price their arcs once.
    """
    calculator = ArcDelayCalculator(fast, slow, pessimism)
    graph = build_timing_graph(design, calculator, arc_cache=arc_cache)
    analyzer = TimingAnalyzer(design, graph, clock,
                              generate_constraints(design, pessimism))
    analyzer.declare_false_through(*false_through)
    return TimingRun(design=design, fast=fast, slow=slow, analyzer=analyzer,
                     report=analyzer.verify(), calculator=calculator)


def analyze_design(
    flat: FlatNetlist,
    technology: Technology,
    clock: TwoPhaseClock,
    clock_hints: Iterable[str] = (),
    pessimism: PessimismSettings | None = None,
    parasitics: Parasitics | None = None,
    false_through: Iterable[str] = (),
    design: RecognizedDesign | None = None,
    arc_cache=None,
) -> TimingRun:
    """Recognize, extract and annotate ``flat``, then run the pipeline.

    ``design`` short-circuits recognition with a precomputed result
    (it must be for this ``flat``); ``parasitics`` replaces the default
    wireload extraction.  The rest is handed to
    :func:`analyze_annotated`.
    """
    if design is None:
        design = recognize(flat, clock_hints=clock_hints)
    if parasitics is None:
        parasitics = WireloadModel().extract(flat, technology.wires)
    fast = annotate(flat, parasitics, technology, Corner.FAST)
    slow = annotate(flat, parasitics, technology, Corner.SLOW)
    return analyze_annotated(design, fast, slow, clock, pessimism=pessimism,
                             false_through=false_through, arc_cache=arc_cache)
