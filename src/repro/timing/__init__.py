"""Static timing verification (paper section 4.3, Figure 4).

"Timing verification is used to identify all critical and race paths.
Critical paths (slow paths) will limit the clock frequency of the chip
while race paths (fast paths) will prevent the chip from working at any
frequency."

Structure:

* :mod:`~repro.timing.pessimism` -- the knobs balancing "enough
  pessimism to insure identification of all violations, while not so
  much pessimism to cause false violations";
* :mod:`~repro.timing.delay` -- min/max RC delay calculation per
  recognized-gate arc, with bounded capacitance (Miller + tolerance)
  and corner-split drive strength;
* :mod:`~repro.timing.graph` -- delay arcs deduced from recognition
  (static gates, dynamic precharge/evaluate, pass networks);
* :mod:`~repro.timing.clocking` -- the two-phase clock model and clock
  skew accounting;
* :mod:`~repro.timing.constraints` -- setup/hold/glitch constraint
  generation for on-the-fly state elements and dynamic nodes;
* :mod:`~repro.timing.analyzer` -- arrival-window propagation, critical
  paths, race detection, minimum cycle time, and false-path exclusion;
* :mod:`~repro.timing.driver` -- the one pipeline that chains them, which
  the battery's setup/race check and the flow's timing stage both call.
"""

from repro.timing.pessimism import PessimismSettings
from repro.timing.arccache import ArcPriceCache
from repro.timing.delay import ArcDelayCalculator
from repro.timing.graph import DelayArc, TimingGraph, build_timing_graph, reprice_arcs
from repro.timing.clocking import TwoPhaseClock
from repro.timing.constraints import Constraint, ConstraintKind, generate_constraints
from repro.timing.analyzer import (
    ArrivalWindow,
    RaceViolation,
    TimingAnalyzer,
    TimingPath,
    TimingReport,
)
from repro.timing.driver import TimingRun, analyze_annotated, analyze_design
from repro.timing.report import render_path, render_timing_report
from repro.timing.sizing import ClosureResult, SizingResult, close_timing, size_path

__all__ = [
    "PessimismSettings",
    "ArcPriceCache",
    "ArcDelayCalculator",
    "DelayArc",
    "TimingGraph",
    "build_timing_graph",
    "reprice_arcs",
    "TwoPhaseClock",
    "Constraint",
    "ConstraintKind",
    "generate_constraints",
    "ArrivalWindow",
    "RaceViolation",
    "TimingAnalyzer",
    "TimingPath",
    "TimingReport",
    "TimingRun",
    "analyze_annotated",
    "analyze_design",
    "render_path",
    "render_timing_report",
    "ClosureResult",
    "SizingResult",
    "close_timing",
    "size_path",
]
