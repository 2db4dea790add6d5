"""The CBV verification campaign: the Figure-2 flow as one call.

A :class:`DesignBundle` packages everything the flow needs about one
design; :meth:`CbvCampaign.run` executes the stages in order and
collects a :class:`CbvReport`.  Verification stages never block each
other -- the paper's flow reports everything and lets the designer
triage, rather than dying at the first red box.

That promise is enforced, not aspirational: every stage runs under fault
isolation.  A stage that raises records ``StageStatus.ERROR`` with its
traceback and the campaign keeps going -- downstream stages run on
whatever artifacts exist and only true dependents are skipped (with a
``SKIPPED`` result naming the missing artifact).  The check battery has
its own per-check isolation (see :mod:`repro.checks.registry`), so a
crashing or hung check degrades to one VIOLATION finding.  Everything
the run did is logged to a structured :class:`~repro.core.trace.CampaignTrace`
on the report.

Durability is the third leg (``run(store=...)``): each completed stage
is checkpointed to a crash-safe :class:`~repro.store.ArtifactStore`
under a key fingerprinting exactly that stage's inputs, and a run over
a store that already holds them replays finished stages -- verified by
checksum, corrupt blobs quarantined and re-run -- producing a report
canonically byte-identical to a cold run.  See :mod:`repro.store`.

What each stage is keyed by, needs and keeps is declared once, in the
stage table :data:`repro.core.stages.STAGES`.

The same store / trace / canonical-report contract is shared by the
statistical campaigns in :mod:`repro.scenarios`
(:class:`~repro.scenarios.campaign.ScenarioCampaign`): fuzz and
Monte-Carlo runs checkpoint per sample shard, resume without re-running
checkpointed seeds, and serialize through the same canonical JSON rules
(:mod:`repro.core.report`), so their reports are byte-comparable across
cold, resumed, and fleet runs exactly like :class:`CbvReport`.
"""

from __future__ import annotations

import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.checks.base import Check, CheckContext, CheckSettings
from repro.checks.driver import make_context
from repro.checks.registry import ALL_CHECKS, BatteryResult, run_battery
from repro.core.stages import (
    STAGES,
    FlowStage,
    StageResult,
    StageSpec,
    StageStatus,
)
from repro.core.trace import CampaignTrace, TraceEvent
from repro.core.triage import DesignerQueue
from repro.equivalence.combinational import check_gate_vs_function
from repro.extraction.caps import Parasitics
from repro.extraction.extract import extract_macrocell
from repro.layout.antenna_geom import antenna_geometry
from repro.layout.macrocell import generate_macrocell
from repro.netlist.cell import Cell
from repro.netlist.erc import run_erc
from repro.netlist.flatten import FlatNetlist, flatten
from repro.perf import DesignCache, collect_counters
from repro.perf.stopwatch import Stopwatch
from repro.process.technology import Technology
from repro.recognition.conduction import enumeration_counters
from repro.recognition.recognizer import RecognizedDesign
from repro.switchsim import Logic, OscillationError, VectorSwitchSimulator
from repro.timing.analyzer import TimingReport
from repro.timing.arccache import ArcPriceCache
from repro.timing.clocking import TwoPhaseClock
from repro.timing.driver import analyze_annotated
from repro.timing.pessimism import PessimismSettings

_MISSING = object()


def _enum_delta(before: dict[str, int]) -> dict[str, float]:
    """Path-enumeration counter movement since ``before`` (a snapshot
    of :func:`repro.recognition.conduction.enumeration_counters`)."""
    return {k: float(v - before.get(k, 0))
            for k, v in enumeration_counters().items()}


def _check_stage_checkpoint(flow: FlowStage, payload) -> None:
    """Raise unless ``payload`` is ``flow``'s stage checkpoint.

    The event slice is validated up front so replay cannot fail halfway
    through its side effects.
    """
    result = payload.get("result") if isinstance(payload, dict) else None
    if (not isinstance(result, StageResult) or result.stage is not flow
            or not isinstance(payload.get("artifacts"), dict)):
        raise ValueError("payload shape is not a stage checkpoint")
    for d in payload["events"]:
        TraceEvent.from_dict(d)


@dataclass
class DesignBundle:
    """Everything the flow needs to verify one design.

    Attributes
    ----------
    name / cell / technology / clock:
        The design and its operating context.
    clock_hints:
        Declared clock nets (footless domino etc.).
    rtl_intent:
        Output net -> boolean predicate over named inputs -- the
        RTL-equivalence obligations.  ``rtl_inputs`` names the input
        ordering per output.
    functional_vectors:
        Switch-level stimulus for the logic stage's simulation leg:
        a sequence of steps, each mapping net name -> ``0`` / ``1`` /
        :class:`~repro.switchsim.Logic` / ``"release"`` (stop driving).
        Each step is applied (nets in sorted order) and settled before
        the next.  ``functional_probes`` names nets that must settle
        to a known value after the last step -- an ``X`` probe fails
        the stage, as does an oscillation during any step.
    use_layout:
        True: generate a macrocell and extract from geometry; False:
        wireload model (the feasibility-study mode).
    false_through:
        Architecturally false path exclusions (designer intent).
    """

    name: str
    cell: Cell
    technology: Technology
    clock: TwoPhaseClock
    clock_hints: tuple[str, ...] = ()
    rtl_intent: dict[str, Callable[..., bool]] = field(default_factory=dict)
    rtl_inputs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    functional_vectors: tuple = ()
    functional_probes: tuple[str, ...] = ()
    use_layout: bool = True
    #: Pre-extracted parasitics to use instead of the default wireload
    #: model when ``use_layout`` is False (e.g. a tuned WireloadModel).
    parasitics: Parasitics | None = None
    false_through: tuple[str, ...] = ()
    pessimism: PessimismSettings = field(default_factory=PessimismSettings)
    check_settings: CheckSettings = field(default_factory=CheckSettings)


def _bundle_skip(bundle: DesignBundle, flow: FlowStage) -> str | None:
    """The summary of ``flow``'s SKIPPED result when ``bundle`` alone
    decides it, else None: a wireload design has no layout, and a
    design with no RTL intent and no vectors has no logic stage.

    The campaign decides it before probing the store: SKIPPED results
    are never checkpointed, so the probe could only miss.
    """
    if flow is FlowStage.LAYOUT and not bundle.use_layout:
        return "no layout; wireload parasitics in use"
    if (flow is FlowStage.LOGIC_VERIFICATION and not bundle.rtl_intent
            and not bundle.functional_vectors):
        return "no RTL intent or functional vectors declared"
    return None


def battery_context(bundle: DesignBundle, art: dict, cache) -> CheckContext:
    """The circuit stage's check context, from ``bundle``, the stage
    artifacts ``art`` (``flat``, ``design``, ``parasitics`` and, after a
    layout, ``antenna``) and the session ``cache`` (a
    :class:`repro.perf.DesignCache`).

    A campaign's circuit stage, its checkpoint replay and the fleet's
    battery shards all build their contexts here, so the shards' merged
    findings stay byte-identical to a single-process battery.
    """
    return make_context(
        art["flat"], bundle.technology, clock=bundle.clock,
        clock_hints=bundle.clock_hints, parasitics=art["parasitics"],
        antenna=art.get("antenna"), settings=bundle.check_settings,
        design=art["design"], cache=cache,
    )


@dataclass
class CbvReport:
    """Aggregate of one campaign run."""

    bundle_name: str
    stages: list[StageResult] = field(default_factory=list)
    queue: DesignerQueue = field(default_factory=DesignerQueue)
    flat: FlatNetlist | None = None
    design: RecognizedDesign | None = None
    timing: TimingReport | None = None
    #: Structured event log of the run (JSON-lines serializable).
    trace: CampaignTrace = field(default_factory=CampaignTrace)
    #: The inter-stage artifact map (``flat`` / ``design`` /
    #: ``parasitics`` / ``antenna`` / ``ctx`` / ``battery`` / ``timing``
    #: ...) exactly as the run left it; ``flat``, ``design`` and
    #: ``timing`` above are set from it when the run ends.  Partial runs (``run(until=...)``) expose
    #: their intermediate products here so a distributed executor
    #: (:mod:`repro.fleet`) can continue from them; never serialized by
    #: :func:`repro.core.report.report_to_dict`.
    artifacts: dict = field(default_factory=dict, repr=False)

    def stage(self, stage: FlowStage, default=_MISSING) -> StageResult:
        """The result of ``stage``; ``default`` (when given) instead of a
        KeyError for stages a degraded run never reached."""
        for result in self.stages:
            if result.stage is stage:
                return result
        if default is not _MISSING:
            return default
        ran = ", ".join(s.stage.value for s in self.stages) or "none"
        raise KeyError(f"stage {stage.value!r} did not run "
                       f"(stages that ran: {ran})")

    def errored_stages(self) -> list[StageResult]:
        return [s for s in self.stages if s.status is StageStatus.ERROR]

    def ok(self) -> bool:
        return all(s.ok() for s in self.stages) and self.queue.tapeout_clean()


class CbvCampaign:
    """Runs the Figure-2 flow over one bundle."""

    def __init__(self, bundle: DesignBundle):
        self.bundle = bundle

    def run(self, *, cache: DesignCache | None = None,
            checks: tuple[type[Check], ...] = ALL_CHECKS,
            timeout_s: float | None = None,
            trace: CampaignTrace | None = None,
            store=None,
            until: FlowStage | None = None,
            battery_runner: Callable[..., BatteryResult] | None = None,
            ) -> CbvReport:
        """Execute the flow; never raises for a stage or check fault.

        ``cache`` is a :class:`repro.perf.DesignCache`: recognition,
        extraction, and corner annotation route through it (and through
        :func:`repro.checks.driver.make_context`), so a session verifying
        several views of one netlist derives each artifact once.  The
        switch-level tables come from it too.  Without one the run
        builds a fresh :meth:`DesignCache.over_process_memo
        <repro.perf.DesignCache.over_process_memo>`.
        ``timeout_s`` / ``checks`` are handed to
        :func:`repro.checks.registry.run_battery`.

        ``store`` is a :class:`repro.store.ArtifactStore`: every stage
        that completes with a design verdict (PASS / ATTENTION / FAIL)
        is checkpointed atomically under its input fingerprint, and a
        stage whose checkpoint verifies is replayed (result, kept
        artifacts, and trace events restored) instead of re-executed;
        ERROR and SKIPPED outcomes, batteries that recorded check
        crashes, and corrupt or missing blobs always re-run.  A stage
        the bundle alone skips (no layout in wireload mode, no logic
        stage without RTL intent or vectors) is not looked up.
        Checkpoint faults degrade -- a corrupt blob is quarantined and
        logged as a ``checkpoint.corrupt`` trace event, a failed write
        as ``checkpoint.write_error``, and a store stuck in ENOSPC
        degraded mode as a single ``store.degraded`` event after which
        the campaign runs un-checkpointed -- and never abort the
        campaign (see :func:`repro.store.checkpoint.load_checkpoint`
        and :class:`repro.store.checkpoint.CheckpointWriter`).  A fleet
        worker passes its design's
        :class:`~repro.fleet.session.DesignSession` here: a store view
        that also supplies the stage keys it already derived.

        ``until`` stops the flow after the named stage (inclusive) -- a
        partial run whose intermediate products stay available on
        ``report.artifacts``; the fleet uses this to split one design's
        flow across processes.  ``battery_runner`` replaces
        :func:`run_battery` for the circuit stage: it is called as
        ``battery_runner(ctx, trace)`` and must return a
        :class:`BatteryResult` (the fleet's merged-shard loader).
        """
        if until is not None and until not in STAGES:
            raise ValueError(f"until={until!r} is not a runnable flow stage")
        bundle = self.bundle
        if cache is None:
            cache = DesignCache.over_process_memo()
        if trace is None:
            trace = CampaignTrace()
        report = CbvReport(bundle_name=bundle.name, trace=trace)
        art: dict[str, object] = report.artifacts
        watch = Stopwatch()
        keys: dict[FlowStage, str] = {}
        if store is not None:
            # Imported here, not at module top: repro.store fingerprints
            # FlowStage-keyed inputs, so a module-level import would be
            # circular (store -> core.stages -> core -> campaign ->
            # store).  A campaign without a store never needs it.
            from repro.store.checkpoint import (
                CheckpointWriter,
                load_checkpoint,
                stage_keys,
            )
            writer = CheckpointWriter(store, trace)
            # A fleet design session fingerprinted its bundle once per
            # worker (repro.fleet.session); any other store gets keys
            # derived here, from the bundle as it is now.
            keys = getattr(store, "stage_keys", stage_keys)(
                bundle, checks=checks, timeout_s=timeout_s)
        trace.emit("campaign_start", name=bundle.name)

        # -- schematic entry (with ERC) -----------------------------------------
        def schematic() -> StageResult:
            flat = flatten(bundle.cell)
            art["flat"] = flat
            erc_violations = run_erc(flat)
            return StageResult(
                stage=FlowStage.SCHEMATIC,
                status=StageStatus.FAIL if erc_violations else StageStatus.PASS,
                summary=f"{flat.device_count()} transistors, "
                        f"{len(flat.nets)} nets, "
                        f"{len(erc_violations)} ERC violation(s)",
                metrics={"transistors": float(flat.device_count()),
                         "nets": float(len(flat.nets)),
                         "erc_violations": float(len(erc_violations))},
                details=[f"{v.rule}: {v.subject}: {v.message}"
                         for v in erc_violations[:10]],
            )

        # -- recognition -------------------------------------------------------
        def recognition() -> StageResult:
            enum_before = enumeration_counters()
            design = cache.recognized(art["flat"],
                                      clock_hints=bundle.clock_hints)
            art["design"] = design
            hist = design.family_histogram()
            return StageResult(
                stage=FlowStage.RECOGNITION, status=StageStatus.PASS,
                summary=", ".join(f"{fam.value}: {count}"
                                  for fam, count in sorted(
                                      hist.items(), key=lambda kv: kv[0].value)),
                metrics=collect_counters(
                    {
                        "cccs": float(len(design.cccs)),
                        "clocks": float(len(design.clocks)),
                        "storage": float(len(design.storage)),
                        "dynamic_nodes": float(len(design.dynamic_nodes)),
                    },
                    design.perf,
                    _enum_delta(enum_before),
                ),
            )

        # -- layout ------------------------------------------------------------
        def layout() -> StageResult:
            flat = art["flat"]
            mc = generate_macrocell(bundle.name, flat.transistors,
                                    l_min_um=bundle.technology.l_min_um)
            art["layout_parasitics"] = extract_macrocell(
                mc, bundle.technology.wires)
            art["antenna"] = antenna_geometry(
                mc.layout, flat, l_min_um=bundle.technology.l_min_um)
            return StageResult(
                stage=FlowStage.LAYOUT, status=StageStatus.PASS,
                summary=f"macrocell {mc.width_um:.1f} um wide, "
                        f"{mc.breaks} diffusion breaks",
                metrics={"width_um": mc.width_um, "breaks": float(mc.breaks)},
            )

        # -- extraction (wireload fallback keeps the flow alive if layout
        #    errored: the paper's feasibility mode is exactly this) ------------
        def extraction() -> StageResult:
            fallback = ""
            parasitics = art.get("layout_parasitics")
            if parasitics is None:
                parasitics = (bundle.parasitics if bundle.parasitics is not None
                              else cache.parasitics(art["flat"],
                                                    bundle.technology))
                if bundle.use_layout:
                    fallback = " (wireload fallback: layout stage failed)"
            art["parasitics"] = parasitics
            coupled = sum(1 for p in parasitics.nets.values() if p.couplings)
            return StageResult(
                stage=FlowStage.EXTRACTION, status=StageStatus.PASS,
                summary=f"{len(parasitics.nets)} nets extracted, "
                        f"{coupled} with coupling" + fallback,
                metrics={"nets": float(len(parasitics.nets)),
                         "coupled_nets": float(coupled)},
            )

        # -- logic verification -------------------------------------------------
        def logic() -> StageResult:
            return self._logic_stage(art["design"], art["flat"], cache)

        # -- circuit verification (the check battery) ---------------------------
        def circuit() -> StageResult:
            ctx = battery_context(bundle, art, cache)
            art["ctx"] = ctx
            if battery_runner is not None:
                battery = battery_runner(ctx, trace)
            else:
                battery = run_battery(ctx, checks=checks,
                                      timeout_s=timeout_s, trace=trace)
            art["battery"] = battery
            stats = battery.queues.stats()
            report.queue.add_findings(battery.findings)
            status = (StageStatus.FAIL if stats.violations
                      else StageStatus.ATTENTION if stats.inspect
                      else StageStatus.PASS)
            return StageResult(
                stage=FlowStage.CIRCUIT_VERIFICATION, status=status,
                summary=f"{stats.total} findings: {stats.passed} auto-cleared, "
                        f"{stats.inspect} to inspect, "
                        f"{stats.violations} violations"
                        + (f", {len(battery.crashes)} check crash(es)"
                           if battery.crashes else ""),
                metrics={"findings": float(stats.total),
                         "inspect": float(stats.inspect),
                         "violations": float(stats.violations),
                         "check_crashes": float(len(battery.crashes)),
                         "auto_cleared_fraction": stats.auto_cleared_fraction(),
                         "battery_seconds": battery.total_seconds()},
                details=[f"{name}: {detail.splitlines()[-1]}"
                         for name, detail in battery.crashes.items()],
            )

        # -- timing verification ------------------------------------------------
        def timing_stage() -> StageResult:
            ctx = art["ctx"]
            arc_cache = ArcPriceCache()
            run = analyze_annotated(
                art["design"], ctx.fast, ctx.slow, bundle.clock,
                pessimism=bundle.pessimism,
                false_through=bundle.false_through, arc_cache=arc_cache)
            timing = run.report
            art["timing"] = timing
            report.queue.add_timing(timing.setup_violations, timing.races)
            timing_status = (StageStatus.FAIL
                             if timing.setup_violations or timing.races
                             else StageStatus.PASS)
            return StageResult(
                stage=FlowStage.TIMING_VERIFICATION, status=timing_status,
                summary=f"min cycle {timing.min_cycle_time_s * 1e9:.2f} ns "
                        f"({timing.max_frequency_hz() / 1e6:.0f} MHz), "
                        f"{len(timing.setup_violations)} setup violations, "
                        f"{len(timing.races)} races",
                metrics=collect_counters(
                    {"min_cycle_s": timing.min_cycle_time_s,
                     "setup_violations": float(len(timing.setup_violations)),
                     "races": float(len(timing.races))},
                    run.analyzer,
                    arc_cache,
                ),
            )

        # -- checkpoint hooks.  A checkpoint stores the artifacts its
        #    stage keeps (per the stage table) and a replay restores them.
        #    The circuit stage stores its battery in dict form, and none
        #    at all when a check crashed; the circuit and timing replays
        #    also refill the designer queue.  A replay hook does its
        #    fallible work first and mutates the queue last, so a bad
        #    payload degrades cleanly to re-execution.
        def encode_circuit(kept: dict) -> dict | None:
            battery = kept["battery"]
            # A battery that recorded check crashes is a tool fault, not
            # a design verdict: never checkpoint it, so the resume re-runs
            # the checks in (hopefully) a healthier environment.
            if battery.crashes:
                return None
            return {"battery": battery.to_dict()}

        def replay_circuit(kept: dict) -> None:
            battery = BatteryResult.from_dict(kept["battery"])
            # Rebuild the live context: downstream timing needs it even
            # when the battery itself is replayed from the store.
            kept.update(battery=battery,
                        ctx=battery_context(bundle, art, cache))
            report.queue.add_findings(battery.findings)

        def replay_timing(kept: dict) -> None:
            timing = kept["timing"]
            if not isinstance(timing, TimingReport):
                raise TypeError("checkpoint payload is not a TimingReport")
            report.queue.add_timing(timing.setup_violations, timing.races)

        stage_fns: dict[FlowStage, Callable[[], StageResult]] = {
            FlowStage.SCHEMATIC: schematic,
            FlowStage.RECOGNITION: recognition,
            FlowStage.LAYOUT: layout,
            FlowStage.EXTRACTION: extraction,
            FlowStage.LOGIC_VERIFICATION: logic,
            FlowStage.CIRCUIT_VERIFICATION: circuit,
            FlowStage.TIMING_VERIFICATION: timing_stage,
        }
        encoders = {FlowStage.CIRCUIT_VERIFICATION: encode_circuit}
        replays = {FlowStage.CIRCUIT_VERIFICATION: replay_circuit,
                   FlowStage.TIMING_VERIFICATION: replay_timing}

        def replayed(spec: StageSpec, key: str) -> bool:
            """Replay ``spec``'s checkpoint under ``key``; False when
            there is none to replay and the stage must run."""
            flow = spec.flow
            loaded = load_checkpoint(
                store, key, flow.value, trace,
                lambda payload: _check_stage_checkpoint(flow, payload))
            if loaded is None:
                return False
            result = loaded["result"]
            if result.status in (StageStatus.ERROR, StageStatus.SKIPPED):
                trace.emit("checkpoint.rerun", name=flow.value,
                           status=result.status.value)
                return False
            try:
                # Artifact restoration comes first: a payload missing a
                # key fails here, before any trace or report mutation,
                # and degrades to re-run.
                kept = {name: loaded["artifacts"][name]
                        for name in spec.keeps}
                if flow in replays:
                    replays[flow](kept)
            except Exception as exc:  # noqa: BLE001 -- degrade
                store.invalidate(key)
                trace.emit("checkpoint.corrupt", name=flow.value,
                           detail=f"{key}: replay failed: "
                                  f"{type(exc).__name__}: {exc}")
                return False
            art.update(kept)
            trace.replay(loaded["events"])
            report.stages.append(result)
            trace.emit("checkpoint.hit", name=flow.value,
                       status=result.status.value)
            return True

        def run_stage(spec: StageSpec) -> None:
            flow = spec.flow
            missing = [name for name in spec.requires if name not in art]
            if missing:
                result = StageResult(
                    stage=flow, status=StageStatus.SKIPPED,
                    summary="skipped: missing upstream artifact(s): "
                            + ", ".join(missing),
                )
                report.stages.append(result)
                trace.emit("stage_skipped", name=flow.value,
                           status=result.status.value, detail=result.summary)
                return

            skip = _bundle_skip(bundle, flow)
            key = keys.get(flow) if skip is None else None
            if key is not None and replayed(spec, key):
                return

            first_event = len(trace.events)
            trace.emit("stage_start", name=flow.value)
            stage_watch = Stopwatch()
            try:
                result = (stage_fns[flow]() if skip is None
                          else StageResult(stage=flow,
                                           status=StageStatus.SKIPPED,
                                           summary=skip))
            except Exception as exc:  # noqa: BLE001 -- isolation is the point
                tb = traceback.format_exc()
                result = StageResult(
                    stage=flow, status=StageStatus.ERROR,
                    summary=f"stage crashed: {type(exc).__name__}: {exc}",
                    details=tb.rstrip().splitlines(),
                )
            report.stages.append(result)
            trace.emit(
                "stage_end", name=flow.value, status=result.status.value,
                wall_s=stage_watch.elapsed(), counters=result.metrics,
                detail=("\n".join(result.details)
                        if result.status is StageStatus.ERROR else ""),
            )
            if (key is not None
                    and result.status not in (StageStatus.ERROR,
                                              StageStatus.SKIPPED)):
                kept = {name: art[name] for name in spec.keeps}
                if flow in encoders:
                    kept = encoders[flow](kept)
                if kept is not None:
                    payload = {
                        "result": result,
                        "artifacts": kept,
                        "events": [e.to_dict()
                                   for e in trace.events[first_event:]],
                    }
                    writer.write(key, payload, meta={
                        "design": bundle.name, "stage": flow.value,
                        "status": result.status.value,
                    }, label=flow.value)

        for spec in STAGES.values():
            run_stage(spec)
            if spec.flow is until:
                break
        report.flat = art.get("flat")
        report.design = art.get("design")
        report.timing = art.get("timing")

        trace.emit(
            "campaign_end", name=bundle.name,
            status="ok" if report.ok() else "needs-triage",
            wall_s=watch.elapsed(),
            counters=collect_counters(
                {"stages": float(len(report.stages)),
                 "errors": float(len(report.errored_stages())),
                 "open_items": float(len(report.queue.open_items()))},
                cache,
                store,
            ),
        )
        return report

    def _logic_stage(self, design: RecognizedDesign, flat: FlatNetlist,
                     cache: DesignCache) -> StageResult:
        bundle = self.bundle
        mismatches: list[str] = []
        checked = 0
        for output, intent in bundle.rtl_intent.items():
            inputs = bundle.rtl_inputs.get(output)
            if inputs is None:
                mismatches.append(f"{output}: no input ordering declared")
                continue
            try:
                result = check_gate_vs_function(design, output, intent,
                                                list(inputs))
            except ValueError as exc:
                mismatches.append(f"{output}: {exc}")
                continue
            checked += 1
            if not result.equivalent:
                mismatches.append(
                    f"{output}: differs from intent at {result.counterexample}")
        metrics = {"outputs_checked": float(checked)}
        parts = []
        if bundle.rtl_intent:
            parts.append(f"{checked} outputs proven equivalent")
        if bundle.functional_vectors:
            problems, sim_metrics = self._functional_leg(flat, cache)
            mismatches.extend(problems)
            metrics.update(sim_metrics)
            parts.append(f"{len(bundle.functional_vectors)} vectors simulated "
                         f"({int(sim_metrics['sim_events'])} events, "
                         "vector engine)")
        metrics["mismatches"] = float(len(mismatches))
        status = StageStatus.FAIL if mismatches else StageStatus.PASS
        return StageResult(
            stage=FlowStage.LOGIC_VERIFICATION, status=status,
            summary=", ".join(parts)
                    + (f"; {len(mismatches)} problems" if mismatches else ""),
            metrics=metrics,
            details=mismatches,
        )

    def _functional_leg(self, flat: FlatNetlist, cache: DesignCache,
                        ) -> tuple[list[str], dict[str, float]]:
        """Run the bundle's functional vectors through the vector engine.

        Returns ``(problems, metrics)``.  The metrics surface the
        engine's perf counters (``solve_count`` / ``skip_count`` /
        ``ccc_evaluations`` ...) alongside ``sim_steps`` and
        ``sim_events``, so campaign reports show how much solve work the
        dirty-group machinery avoided.
        """
        bundle = self.bundle
        enum_before = enumeration_counters()
        sim = VectorSwitchSimulator(flat, record_history=False, cache=cache)
        setup: dict[str, float] = _enum_delta(enum_before)
        setup["table_build_seconds"] = float(sim.tables.build_wall_s)
        setup.update({k: float(v) for k, v in sim.tables.counters().items()})
        problems: list[str] = []
        events = 0
        for step, stimuli in enumerate(bundle.functional_vectors):
            for net in sorted(stimuli):
                value = stimuli[net]
                if value == "release":
                    sim.release(net)
                else:
                    sim.drive(net, value)
            try:
                events += sim.settle()
            except OscillationError as exc:
                problems.append(f"functional step {step}: {exc}")
                break
        else:
            for probe in bundle.functional_probes:
                if sim.value(probe) is Logic.X:
                    problems.append(
                        f"functional probe {probe}: X after "
                        f"{len(bundle.functional_vectors)} vector(s)")
        metrics = collect_counters(
            {"sim_steps": float(len(bundle.functional_vectors)),
             "sim_events": float(events),
             "stamped_paths": float(sim.tables.stamped_paths)},
            sim.counters,
            setup,
        )
        return problems, metrics
