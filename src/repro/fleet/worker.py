"""The fleet worker process: lease a job, execute it, report back.

One worker is one OS process running :func:`worker_main`.  It owns a
handle to the shared :class:`~repro.store.ArtifactStore` and a
per-worker :class:`~repro.core.trace.CampaignTrace` (its ``worker_id``
stamps every event, giving the fleet log its stable ``(worker, seq)``
identities).  The protocol with the scheduler is deliberately tiny --
every message is a picklable tuple

    ``(kind, worker_id, job_id, payload, events)``

where ``kind`` is ``ready`` / ``heartbeat`` / ``done`` / ``error`` /
``bye`` and ``events`` carries the worker-trace slice recorded since the
previous message, so the scheduler can assemble the full fleet log even
from workers that later die; the worker keeps no event it has sent.
Messages go out synchronously on the worker's own pipe to the
scheduler, one at a time: a worker killed partway through a message
tears only its own channel.  A daemon thread heartbeats the current job
id every ``FleetConfig.heartbeat_s`` so the scheduler can renew the
job's lease; a worker that is SIGKILLed simply stops heartbeating and
its lease expires.

Job execution leans entirely on the campaign's own checkpoint/resume,
run against the design's :class:`~repro.fleet.session.DesignSession`:
the worker keeps one per design between that design's jobs, so a job
whose design's earlier jobs ran here replays their checkpoints from
the live payloads the session holds, and any other job (another
worker, a retry, a respawned worker) replays them from the store.

* ``prepare`` runs the flow through logic verification -- every
  completed stage is durably checkpointed, and a retry (or any other
  worker) replays instead of recomputing.  Its result reports the
  recognized CCC count (which sizes the battery shards) and whether the
  front half degraded.
* ``battery[i/k]`` replays the checkpointed stages up to extraction,
  builds the check context, runs its slice of the check registry, and
  stores ``{battery, events}`` under the shard key.  Running the same
  shard twice is harmless: the store's write lock serializes the
  writers and drops the duplicate blob.  The write is best-effort, as
  every checkpoint write is: a shard whose blob never lands is
  recomputed by finalize.
* ``finalize`` replays the same checkpoints and re-runs the circuit
  stage with the merged-shard ``battery_runner``; the resulting
  :class:`~repro.core.campaign.CbvReport` is canonically byte-identical
  to a single-process run.  A design whose prepare degraded (an errored
  front-half stage) skips sharding -- finalize runs the battery inline,
  preserving exactly the degraded single-process behavior.  The
  worker drops the design's session when finalize ends, ok or error,
  and frees it right after the reply has gone out.
"""

from __future__ import annotations

import resource
import threading
import traceback

from repro.core.campaign import CbvCampaign, battery_context
from repro.core.report import report_to_dict
from repro.core.stages import STAGES, FlowStage
from repro.core.trace import CampaignTrace
from repro.fleet.jobs import FleetConfig, Job, JobKind
from repro.fleet.merge import (
    make_battery_runner,
    run_battery_shard,
    shard_store_key,
)
from repro.fleet.session import WorkerSessions
from repro.perf.stopwatch import Stopwatch
from repro.store.artifact import ArtifactStore
from repro.store.checkpoint import CheckpointWriter, load_checkpoint

#: Artifacts the circuit stage cannot run without; prepare must have
#: produced all of them for the design's battery to be sharded.
_BATTERY_REQUIRES = STAGES[FlowStage.CIRCUIT_VERIFICATION].requires


def _run_prepare(job: Job, store: ArtifactStore, config: FleetConfig,
                 wt: CampaignTrace, sessions: WorkerSessions) -> dict:
    session = sessions.open(job, store, config)
    report = CbvCampaign(session.bundle).run(
        store=session, cache=session.cache,
        checks=config.checks, timeout_s=config.timeout_s,
        until=FlowStage.LOGIC_VERIFICATION, trace=wt)
    rec = report.stage(FlowStage.RECOGNITION, None)
    cccs = int(rec.metrics.get("cccs", 0)) if rec is not None else 0
    degraded = (bool(report.errored_stages())
                or any(k not in report.artifacts for k in _BATTERY_REQUIRES))
    return {
        "cccs": cccs,
        "degraded": degraded,
        "stages": {s.stage.value: s.status.value for s in report.stages},
    }


def _run_battery_shard(job: Job, store: ArtifactStore, config: FleetConfig,
                       wt: CampaignTrace, sessions: WorkerSessions) -> dict:
    session = sessions.open(job, store, config)
    bundle = session.bundle
    partial = CbvCampaign(bundle).run(
        store=session, cache=session.cache,
        checks=config.checks, timeout_s=config.timeout_s,
        until=FlowStage.EXTRACTION, trace=wt)
    art = partial.artifacts
    missing = [k for k in _BATTERY_REQUIRES if k not in art]
    if missing:
        raise RuntimeError(
            f"battery shard cannot run: missing artifact(s) "
            f"{', '.join(missing)} (prepare degraded after checkpointing?)")
    shard = job.shard
    payload = run_battery_shard(battery_context(bundle, art, session.cache),
                                config, shard, wt.worker_id)
    battery = payload["battery"]
    wt.replay(payload["events"])
    CheckpointWriter(session, wt).write(
        shard_store_key(session.circuit_key, shard), payload,
        meta={"design": job.design, "shard": shard.label()},
        label=f"battery shard {shard.label()}")
    return {
        "shard": shard.label(),
        "findings": len(battery["findings"]),
        "crashes": len(battery["crashes"]),
    }


def _run_finalize(job: Job, store: ArtifactStore, config: FleetConfig,
                  wt: CampaignTrace, sessions: WorkerSessions) -> dict:
    session = sessions.open(job, store, config)
    poisoned = tuple(job.metadata.get("poison_shards", ()))
    runner = (make_battery_runner(session, session.circuit_key, job.shards,
                                  config, poisoned=poisoned)
              if job.shards else None)
    # The report gets its own trace: report.trace must hold exactly one
    # campaign's events, not this worker's whole history.
    rtrace = CampaignTrace(worker_id=wt.worker_id)
    report = CbvCampaign(session.bundle).run(
        store=session, cache=session.cache,
        checks=config.checks, timeout_s=config.timeout_s, trace=rtrace,
        battery_runner=runner)
    return {"report": report_to_dict(report), "ok": report.ok()}


def _run_scenario_shard(job: Job, store: ArtifactStore,
                        wt: CampaignTrace) -> dict:
    # Lazy: repro.scenarios imports repro.fleet.jobs, so the import
    # must not run at this module's import time (cycle through
    # repro.fleet.__init__).
    from repro.scenarios.report import check_scenario_shard
    from repro.scenarios.runner import run_shard
    from repro.scenarios.spec import resolve_scenario, shard_key

    spec = resolve_scenario(job.bundle_ref)
    shard = job.shard
    key = shard_key(spec, shard.index, shard.count)
    label = f"{spec.name}:shard[{shard.label()}]"
    # Cross-run fleet resume: a verified shard blob from an earlier
    # fleet (or serial) run over the same spec and shard layout replays
    # instead of recomputing -- the exact validation the serial
    # campaign applies, so corrupt or wrong-shaped blobs are quarantined
    # and the shard re-runs.
    payload = load_checkpoint(store, key, label, wt, check_scenario_shard)
    if payload is not None:
        wt.replay(payload["events"])
        wt.emit("checkpoint.hit", name=label)
    else:
        # Running the same shard twice (retry, expired lease) is
        # harmless: the payload is deterministic and the store's write
        # lock drops the duplicate blob, exactly like battery shards.
        payload = run_shard(spec, shard.lo, shard.hi,
                            worker_id=wt.worker_id)
        wt.replay(payload["events"])
        CheckpointWriter(store, wt).write(
            key, payload, meta={"scenario": spec.name, "kind": spec.kind,
                                "shard": shard.label()}, label=label)
    mismatches = sum(m.get("mismatches", 0.0)
                     for m in payload["samples"].values())
    return {
        "shard": shard.label(),
        "samples": len(payload["samples"]),
        "mismatches": int(mismatches),
    }


def _run_scenario_rollup(job: Job, store: ArtifactStore,
                         wt: CampaignTrace) -> dict:
    from repro.fleet.merge import assemble_scenario_report
    from repro.scenarios.spec import resolve_scenario

    spec = resolve_scenario(job.bundle_ref)
    # A shard whose blob is missing or corrupt is recomputed here.
    report = assemble_scenario_report(store, spec, job.shards, wt)
    return {"report": report.to_dict(), "ok": report.ok()}


def execute_job(job: Job, store: ArtifactStore, config: FleetConfig,
                wt: CampaignTrace,
                sessions: WorkerSessions | None = None) -> dict:
    """Run one fleet job; returns its picklable result payload.

    ``sessions`` is the worker's :class:`WorkerSessions`: a design job
    continues from its design's session when the worker holds one.
    Without it, every design job starts from the store alone.
    """
    if sessions is None:
        sessions = WorkerSessions()
    if job.kind is JobKind.PREPARE:
        return _run_prepare(job, store, config, wt, sessions)
    if job.kind is JobKind.BATTERY:
        return _run_battery_shard(job, store, config, wt, sessions)
    if job.kind is JobKind.FINALIZE:
        try:
            return _run_finalize(job, store, config, wt, sessions)
        finally:
            # The design's last job: its session goes, ok or error.
            sessions.close(job.design)
    if job.kind is JobKind.SCENARIO:
        return _run_scenario_shard(job, store, wt)
    if job.kind is JobKind.ROLLUP:
        return _run_scenario_rollup(job, store, wt)
    raise ValueError(f"unknown job kind: {job.kind!r}")


def _peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker_main(worker_id: str, inbox, outbox, config: FleetConfig) -> None:
    """Process entry point: serve jobs from ``inbox`` until told to stop.

    ``outbox`` is this worker's end of its pipe to the scheduler (a
    ``multiprocessing`` connection, or anything with ``send``).

    With ``config.chaos`` set, the worker wires the plan in at two
    levels: its store becomes a :class:`~repro.chaos.ChaosStore`
    (scheduled write/read/lock/latency faults), and every job boundary
    draws a ``worker.job_start`` / ``worker.job_end`` process fault
    (SIGSTOP / SIGKILL), tokenized by ``job_id:retries`` so a retried
    job re-draws rather than replaying its killer fault forever.
    """
    injector = None
    if config.chaos is not None:
        # Lazy import: repro.chaos reaches repro.scenarios, which
        # imports repro.fleet.jobs (cycle at module import time).
        from repro.chaos.plan import FaultInjector, apply_process_fault
        from repro.chaos.store import ChaosStore
        injector = FaultInjector(config.chaos)
        store: ArtifactStore = ChaosStore(config.store_dir, config.chaos,
                                          injector=injector)
    else:
        store = ArtifactStore(config.store_dir)
    wt = CampaignTrace(worker_id=worker_id)
    sessions = WorkerSessions()

    def drain() -> list[dict]:
        # The worker keeps no event it has sent: a long-lived worker's
        # trace holds one job's events at most.
        return [e.to_dict() for e in wt.drain()]

    send_lock = threading.Lock()

    def send(kind: str, job_id=None, payload=None, events=()) -> None:
        with send_lock:  # the heartbeat thread shares the pipe
            outbox.send((kind, worker_id, job_id, payload, list(events)))

    current: dict[str, str | None] = {"job_id": None}
    stop_beat = threading.Event()

    def beat() -> None:
        while not stop_beat.wait(config.heartbeat_s):
            job_id = current["job_id"]
            if job_id is not None:
                send("heartbeat", job_id)

    threading.Thread(target=beat, daemon=True,
                     name=f"{worker_id}-heartbeat").start()

    send("ready")
    while True:
        message = inbox.get()
        if message[0] == "stop":
            break
        job: Job = message[1]
        current["job_id"] = job.job_id
        if injector is not None:
            apply_process_fault(injector.fire(
                "worker.job_start", token=f"{job.job_id}:{job.retries}"))
        wt.emit("job_start", name=job.job_id,
                counters={"retries": float(job.retries)})
        watch = Stopwatch()
        hits = sessions.hits
        try:
            result = execute_job(job, store, config, wt, sessions)
        except Exception:  # noqa: BLE001 -- report, don't die
            detail = traceback.format_exc()
            wt.emit("job_end", name=job.job_id, status="error",
                    wall_s=watch.elapsed(), detail=detail)
            current["job_id"] = None
            send("error", job.job_id, detail, drain())
        else:
            seconds = watch.elapsed()
            wt.emit("job_end", name=job.job_id, status="ok", wall_s=seconds)
            if injector is not None:
                # Fired before the done message: a fault here emulates a
                # worker lost with a *finished but unreported* job -- the
                # retry must reload or recompute idempotently.
                apply_process_fault(injector.fire(
                    "worker.job_end", token=f"{job.job_id}:{job.retries}"))
            current["job_id"] = None
            send("done", job.job_id,
                 {"result": result, "job_seconds": seconds,
                  "store_counters": store.counters(),
                  "session_hit": sessions.hits > hits,
                  "peak_rss_mb": _peak_rss_mb()},
                 drain())
        # The reply has been sent: free the session a finalize closed.
        sessions.release()
    stop_beat.set()
    send("bye", events=drain())
