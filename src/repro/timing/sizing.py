"""Automatic path sizing (paper section 2.2).

"Transistors are sized either by the designer or by using automatic path
sizing techniques."

This module provides the classic technique: logical-effort sizing of a
gate chain.  Given the nets along a path and the load at its end, each
stage's input capacitance is set so every stage carries the same effort
delay -- the delay-optimal distribution for a fixed chain.  The sizer
*rewrites transistor widths in place* (full custom: every device is
individually sized) and reports what it did; it never touches topology.

Scope: chains of recognized complementary gates (any number of inputs;
the sized input is the one on the path).  Dynamic stages and pass
networks are out of scope -- their sizing trades against noise checks,
which is designer territory.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.netlist.flatten import FlatNetlist
from repro.process.corners import Corner
from repro.process.technology import Technology
from repro.recognition.recognizer import RecognizedDesign


@dataclass
class StagePlan:
    """One stage's sizing decision."""

    output_net: str
    scale: float
    devices: list[str]
    c_in_before_f: float
    c_in_after_f: float


@dataclass
class SizingResult:
    """What the sizer did to one path."""

    path_nets: list[str]
    stages: list[StagePlan]
    total_effort: float
    stage_effort: float

    def describe(self) -> str:
        lines = [f"sized {len(self.stages)} stage(s); path effort "
                 f"{self.total_effort:.2f}, per-stage {self.stage_effort:.2f}"]
        for stage in self.stages:
            lines.append(
                f"  {stage.output_net}: x{stage.scale:.2f} on "
                f"{len(stage.devices)} device(s) "
                f"({stage.c_in_before_f * 1e15:.1f} -> "
                f"{stage.c_in_after_f * 1e15:.1f} fF input)"
            )
        return lines and "\n".join(lines) or ""


def _stage_devices(design: RecognizedDesign, output_net: str) -> list[str]:
    """All transistors of the CCC driving ``output_net``."""
    for classification in design.classifications:
        if output_net in classification.gates:
            return [t.name for t in classification.ccc.transistors]
    raise ValueError(f"net {output_net!r} is not a recognized static gate output")


def _input_cap(flat: FlatNetlist, tech: Technology, design: RecognizedDesign,
               output_net: str, input_net: str) -> float:
    """Gate capacitance the stage presents on ``input_net``."""
    members = set(_stage_devices(design, output_net))
    model_cache = {}
    total = 0.0
    for t in flat.transistors:
        if t.name in members and t.gate == input_net:
            model = model_cache.setdefault(
                t.polarity, tech.mosfet(t.polarity, Corner.TYPICAL))
            total += model.gate_capacitance(
                t.w_um, t.effective_length(tech.l_min_um))
    if total <= 0:
        raise ValueError(
            f"stage driving {output_net!r} has no gate on {input_net!r}")
    return total


def size_path(
    flat: FlatNetlist,
    design: RecognizedDesign,
    technology: Technology,
    path_nets: list[str],
    c_load_f: float,
    min_width_um: float = 0.4,
    max_scale: float = 64.0,
) -> SizingResult:
    """Logical-effort sizing of a gate chain.

    Parameters
    ----------
    path_nets:
        ``[input, stage1_out, stage2_out, ..., last_out]`` -- each
        consecutive pair must be an input/output of a recognized static
        gate.  The first stage's size is the anchor (left untouched);
        later stages are scaled for equal stage effort.
    c_load_f:
        The capacitance the last stage must drive.

    Returns the plan after applying it (widths are modified in place on
    ``flat``; callers re-run annotation and timing afterwards).
    """
    if len(path_nets) < 2:
        raise ValueError("a path needs at least one stage")
    stage_outputs = path_nets[1:]
    stage_inputs = path_nets[:-1]

    c_in_first = _input_cap(flat, technology, design,
                            stage_outputs[0], stage_inputs[0])
    total_effort = c_load_f / c_in_first
    if total_effort <= 0:
        raise ValueError("load must be positive")
    n = len(stage_outputs)
    stage_effort = total_effort ** (1.0 / n)

    by_name = {t.name: t for t in flat.transistors}
    stages: list[StagePlan] = []
    # Target input cap of stage i (0-based): c_in_first * f^i.
    for i, (inp, out) in enumerate(zip(stage_inputs, stage_outputs)):
        if i == 0:
            devices = _stage_devices(design, out)
            stages.append(StagePlan(output_net=out, scale=1.0,
                                    devices=devices,
                                    c_in_before_f=c_in_first,
                                    c_in_after_f=c_in_first))
            continue
        current = _input_cap(flat, technology, design, out, inp)
        target = c_in_first * (stage_effort ** i)
        scale = min(max(target / current, 1e-3), max_scale)
        devices = _stage_devices(design, out)
        for name in devices:
            t = by_name[name]
            t.w_um = max(min_width_um, t.w_um * scale)
        after = _input_cap(flat, technology, design, out, inp)
        stages.append(StagePlan(output_net=out, scale=scale,
                                devices=devices,
                                c_in_before_f=current, c_in_after_f=after))
    flat.rebuild_connectivity()
    return SizingResult(path_nets=list(path_nets), stages=stages,
                        total_effort=total_effort, stage_effort=stage_effort)


# -- sizing loop (size -> re-verify, incrementally) ---------------------------


@dataclass
class SizingIteration:
    """One size -> re-verify step of :func:`close_timing`."""

    index: int
    c_load_f: float
    resized_devices: int
    nets_updated: int
    arcs_repriced: int
    min_cycle_time_s: float
    worst_slack_s: float


@dataclass
class ClosureResult:
    """What a :func:`close_timing` loop did and where it ended."""

    path_nets: list[str]
    iterations: list[SizingIteration] = field(default_factory=list)
    report: object | None = None  # final TimingReport

    def min_cycle_time_s(self) -> float:
        return self.report.min_cycle_time_s if self.report else float("inf")


def close_timing(
    run,
    technology: Technology,
    path_nets: list[str],
    loads_f: Sequence[float],
    min_width_um: float = 0.4,
    max_scale: float = 64.0,
) -> ClosureResult:
    """The sizing loop: re-size one path per load target, re-verify.

    ``run`` is a live :class:`~repro.timing.driver.TimingRun`; each entry
    of ``loads_f`` is the load target of one :func:`size_path` call,
    followed by a timing re-verification that keeps everything live:
    refresh the loads of the nets on resized-device terminals
    (:func:`repro.extraction.annotate.update_net_loads` -- wire
    parasitics never move, the wireload model ignores widths), re-price
    only the arcs whose pricing inputs changed (arcs into refreshed
    nets, plus arcs out of CCCs containing a resized device), and let
    ``verify(incremental=True)`` re-propagate the dirty cones.  Each
    iteration's report is bit-identical to re-annotating both corners
    and re-running the whole timing pipeline, because every step
    recomputes the pipeline's exact formula on its exact operands
    (``tests/oracles.py``'s ``reference_close_timing`` is that rebuild).
    """
    from repro.extraction.annotate import update_net_loads
    from repro.timing.graph import reprice_arcs

    design = run.design
    flat = run.fast.flat
    closure = ClosureResult(path_nets=list(path_nets))
    for index, c_load in enumerate(loads_f):
        sized = size_path(flat, design, technology, path_nets, c_load,
                          min_width_um=min_width_um, max_scale=max_scale)
        resized = {name for stage in sized.stages if stage.scale != 1.0
                   for name in stage.devices}
        by_name = {t.name: t for t in flat.transistors}
        touched: set[str] = set()
        for name in resized:
            t = by_name[name]
            touched.update((t.gate, t.drain, t.source))
        nets_updated = update_net_loads(run.fast, sorted(touched))
        update_net_loads(run.slow, sorted(touched))
        affected = set(touched)
        for classification in design.classifications:
            ccc = classification.ccc
            if any(t.name in resized for t in ccc.transistors):
                affected.update(ccc.output_nets or ccc.channel_nets)
        arcs_repriced = reprice_arcs(run.analyzer.graph, run.calculator,
                                     sorted(affected))
        report = run.analyzer.verify(incremental=True)
        run.report = report
        closure.iterations.append(SizingIteration(
            index=index,
            c_load_f=c_load,
            resized_devices=len(resized),
            nets_updated=nets_updated,
            arcs_repriced=arcs_repriced,
            min_cycle_time_s=report.min_cycle_time_s,
            worst_slack_s=report.worst_slack(),
        ))
    closure.report = run.report
    return closure
