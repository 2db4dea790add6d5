"""The fleet scheduler: supervised worker pool + work-stealing broker.

The subsystem has two front doors over one engine:

* :func:`run_fleet` -- design verification: ``prepare`` sizes each
  design's battery shards, ``finalize`` merges them into a
  :class:`~repro.core.campaign.CbvReport`;
* :func:`run_scenario_fleet` -- fuzz / Monte-Carlo campaigns
  (:mod:`repro.scenarios`): every sample shard is an independent job
  and a ``rollup`` job assembles the statistical report.

The shared engine (:class:`_Pool`) spawns ``workers`` OS processes
(``fork`` start method where the platform has it, else ``spawn``),
seeds the :class:`~repro.fleet.queue.WorkQueue`, and runs a
single-threaded event loop over its outbox until it has been asked to
stop and every accepted name has finished.  Each worker sends on its
own pipe, which one relay thread moves onto the outbox whole message by
whole message, so a worker killed mid-message tears only its own pipe.
The front doors and the service (:mod:`repro.service`) all drive it
the same way: names arrive through ``add_design``; a batch front door
adds its whole suite and calls ``request_stop`` before ``run``, while
the service keeps adding names until it shuts down.  The loop:

* ``heartbeat`` messages renew the sender's lease; a lease that goes
  ``FleetConfig.lease_s`` without one is broken and its job requeued --
  unless the holder is demonstrably alive and beating, in which case
  the lease is *re-armed* (a clock jump aged it, not a lost worker);
* a worker that dies (crash, SIGKILL) is detected by ``Process
  .is_alive``, its leased job requeued, its queued jobs resubmitted
  under the surviving topology, and -- within the respawn budget -- a
  replacement worker with a *fresh* worker id is spawned, so trace
  ``(worker, seq)`` identities never collide;
* a worker that is alive but *silent* -- SIGSTOPped, wedged in a
  syscall -- is caught by the heartbeat-age watchdog
  (``FleetConfig.hung_after_s``), SIGKILLed, and replaced through the
  same death path, so a hung process can neither stall its job past
  the watchdog deadline nor leak as a stopped zombie;
* retries are bounded: a job that fails (error or lost worker) more
  than ``FleetConfig.max_retries`` times fails its whole design, whose
  remaining jobs are cancelled; the other designs keep running --
  except battery shards, which are quarantined as *poison* instead
  (the design's finalize degrades its circuit stage to ERROR and the
  rest of the flow still ships, see ``_Pool._poison_shard``);
* what happens when a job *succeeds* is the front door's business: the
  engine hands completions to an ``on_job_done`` hook, which submits
  follow-up jobs (prepare -> shards -> finalize) and records finished
  designs.

Everything the fleet did is observable: live counters in
:class:`~repro.fleet.metrics.FleetMetrics`, and a merged
:class:`~repro.core.trace.CampaignTrace` assembling the scheduler's own
events with every worker's event slices in deterministic
``(worker, seq)`` order.  The per-design reports come back through
their dict forms and their canonical JSON is byte-identical to
single-process runs -- the property the fleet and scenario tests pin.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import tempfile
import threading
from dataclasses import dataclass, field, replace

from repro.core.campaign import CbvReport
from repro.core.report import report_from_dict
from repro.core.trace import CampaignTrace
from repro.fleet.jobs import (
    FleetConfig,
    Job,
    JobKind,
    battery_jobs,
    finalize_job,
    prepare_job,
    scenario_jobs,
    scenario_rollup_job,
)
from repro.fleet.metrics import FleetMetrics
from repro.fleet.queue import WorkQueue
from repro.fleet.worker import worker_main
from repro.perf.stopwatch import Stopwatch


@dataclass
class FleetResult:
    """Everything one fleet run produced.

    ``reports`` maps name -> merged report: a
    :class:`~repro.core.campaign.CbvReport` under :func:`run_fleet`, a
    :class:`~repro.scenarios.report.ScenarioReport` under
    :func:`run_scenario_fleet` -- both canonically byte-identical to a
    single-process run of the same inputs.
    """

    reports: dict = field(default_factory=dict)
    #: Name -> reason, for designs/campaigns the fleet had to abandon.
    failed: dict[str, str] = field(default_factory=dict)
    metrics: FleetMetrics = field(default_factory=FleetMetrics)
    #: Merged fleet event log (scheduler + every worker, deterministic
    #: ``(worker, seq)`` order).
    trace: CampaignTrace = field(default_factory=CampaignTrace)
    #: The shared artifact store the run used (reusable: a second fleet
    #: pointed here resumes from the checkpoints).
    store_dir: str = ""

    def ok(self) -> bool:
        return (not self.failed
                and all(r.ok() for r in self.reports.values()))


class _WorkerHandle:
    """Scheduler-side bookkeeping for one worker process."""

    def __init__(self, wid: str, proc, inbox, relay) -> None:
        self.wid = wid
        self.proc = proc
        self.inbox = inbox
        #: The thread moving this worker's messages onto the outbox.
        self.relay = relay
        self.ready = False
        self.job_id: str | None = None
        #: Real (unskewed) scheduler clock at the last message received
        #: from this worker, or at job assignment; the heartbeat-age
        #: watchdog ages against this.
        self.last_beat = 0.0
        #: Accumulated worker-trace event dicts (arrive piggybacked on
        #: done/error/bye messages, so they survive the worker's death).
        self.events: list[dict] = []
        self.store_counters: dict[str, int] = {}
        #: The worker's peak RSS as of its last ``done`` message.
        self.peak_rss_mb = 0.0


#: The outbox message :meth:`_Pool.call_soon` sends to wake the loop.
_WAKE = ("wake", None, None, None, [])


def _relay(conn, outbox: queue_mod.Queue) -> None:
    """Move one worker's messages from its pipe onto the outbox, whole.

    Stops at EOF (the worker exited or died) or at a message the worker
    was killed partway through sending, whose rest never arrives.
    """
    with conn:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            outbox.put(message)


def _pick_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class _Pool:
    """The generic engine: spawn, lease, supervise, retry, merge.

    ``on_job_done(pool, job, result)`` is called for every successful
    job; it submits follow-up work via ``pool.submit`` and records
    finished names via ``pool.finish``.  The pool itself is agnostic
    about job kinds -- that is the hook's whole purpose.

    Names arrive only through :meth:`add_design`, and :meth:`run`
    returns once :meth:`request_stop` has been called and every
    accepted name has finished.  ``config`` is copied, never mutated:
    with ``store_dir`` unset, each pool gets a fresh temporary store.
    """

    def __init__(self, *, workers: int, config: FleetConfig,
                 on_job_done, on_design_failed=None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        config = replace(config, store_dir=(
            config.store_dir
            or tempfile.mkdtemp(prefix="repro-fleet-store-")))
        self.names: list[str] = []
        self.workers = workers
        self.config = config
        self.on_job_done = on_job_done
        self.on_design_failed = on_design_failed
        self._stopping = False
        #: Thread-safe injection point: callables queued here run on
        #: the scheduler thread, the only thread allowed to touch pool
        #: state, as soon as :meth:`call_soon`'s wake message arrives.
        self._injected: queue_mod.Queue = queue_mod.Queue()
        self.respawn_budget = (config.max_respawns
                               if config.max_respawns is not None
                               else workers)
        self.ctx = _pick_context()
        #: Every worker message, and :meth:`call_soon`'s wake, in arrival
        #: order; the relays fill it.
        self.outbox: queue_mod.Queue = queue_mod.Queue()
        self.metrics = FleetMetrics(workers=workers)
        self.ftrace = CampaignTrace(worker_id="fleet")
        self.wq = WorkQueue(lease_s=config.lease_s)
        self.watch = Stopwatch()
        self.handles: dict[str, _WorkerHandle] = {}
        self.retired: list[_WorkerHandle] = []
        self.jobs_by_id: dict[str, Job] = {}
        self.results: dict = {}
        self.failed: dict[str, str] = {}
        self._next_wid = 0
        #: Chaos clock state: lease arithmetic runs on ``now()`` =
        #: real elapsed + skew, so an injected jump ages every lease at
        #: once -- exactly what an NTP step does to a wall-clock-based
        #: scheduler.  The watchdog deliberately stays on the real
        #: clock (a clock jump must not look like a hang).
        self._clock_skew = 0.0
        self._ticks = 0
        self._chaos = None
        if config.chaos is not None:
            # Imported lazily: repro.chaos reaches repro.scenarios,
            # which imports repro.fleet.jobs -- a top-level import here
            # would close that cycle mid-initialization.
            from repro.chaos.plan import FaultInjector
            self._chaos = FaultInjector(config.chaos)

    def now(self) -> float:
        """The scheduler's lease clock (chaos skew included)."""
        return self.watch.elapsed() + self._clock_skew

    # -- lifecycle hooks the front doors use ---------------------------------

    def call_soon(self, fn) -> None:
        """Run ``fn(pool)`` on the scheduler thread, waking its loop.

        The only thread-safe entry point: everything else on the pool
        assumes single-threaded access, so a front end on another
        thread (the service's asyncio loop) funnels every mutation once
        the loop runs -- ``add_design`` + ``submit``, ``request_stop``
        -- through here.  A wake message on the outbox ends the loop's
        wait for worker messages, so ``fn`` runs at once rather than at
        the next ``poll_s`` tick.  Safe after :meth:`run` has returned:
        the callback is simply never run.
        """
        self._injected.put(fn)
        self.outbox.put(_WAKE)

    def add_design(self, name: str) -> None:
        """Accept one more name (scheduler thread, or before :meth:`run`)."""
        if name in self.names:
            raise ValueError(f"duplicate design name: {name}")
        self.names.append(name)
        self.metrics.designs += 1
        self.ftrace.emit("design_added", name=name)

    def request_stop(self, abort: bool = False) -> None:
        """Let the loop exit once every accepted name finishes.

        With ``abort`` the unfinished names are failed immediately
        instead, so shutdown does not wait out running batteries.
        """
        self._stopping = True
        if abort:
            for name in list(self.names):
                if name not in self.results and name not in self.failed:
                    self.fail_design(name, "pool stop requested")

    def submit(self, job: Job) -> None:
        self.jobs_by_id[job.job_id] = job
        self.wq.submit(job)
        self.metrics.jobs_submitted += 1
        self.ftrace.emit("job_submit", name=job.job_id)

    def finish(self, name: str, value) -> None:
        """Record one name's finished result."""
        self.results[name] = value
        self.metrics.designs_done += 1

    def fail_design(self, design: str, reason: str) -> None:
        if design in self.failed or design in self.results:
            return
        self.failed[design] = reason
        self.metrics.designs_failed += 1
        for dropped in self.wq.cancel_design(design):
            self.ftrace.emit("job_cancel", name=dropped.job_id)
        self.ftrace.emit("design_failed", name=design, detail=reason)
        if self.on_design_failed is not None:
            self.on_design_failed(self, design, reason)

    # -- internals -----------------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        wid = f"w{self._next_wid}"
        self._next_wid += 1
        inbox = self.ctx.Queue()
        receive, send = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(target=worker_main, name=wid,
                                args=(wid, inbox, send, self.config),
                                daemon=True)
        proc.start()
        # Workers started later must not inherit the write end: the
        # pipe of a worker that dies mid-message reaches EOF only once
        # every copy of it is closed.
        send.close()
        relay = threading.Thread(target=_relay, args=(receive, self.outbox),
                                 name=f"{wid}-relay", daemon=True)
        relay.start()
        handle = _WorkerHandle(wid, proc, inbox, relay)
        self.handles[wid] = handle
        self.wq.add_worker(wid)
        self.metrics.workers_spawned += 1
        self.ftrace.emit("worker_spawn", name=wid)
        return handle

    def _requeue_or_fail(self, job_id: str, why: str) -> None:
        job = self.jobs_by_id.get(job_id)
        if job is None or self.wq.is_done(job_id):
            return
        if job.retries >= self.config.max_retries:
            if job.kind is JobKind.BATTERY and job.design not in self.failed:
                self._poison_shard(job, why)
                return
            self.wq.fail(job_id)
            self.metrics.jobs_failed += 1
            self.fail_design(job.design,
                             f"{job_id} exhausted {self.config.max_retries} "
                             f"retries (last: {why})")
        elif self.wq.release(job_id) is not None:
            self.metrics.retries += 1
            self.ftrace.emit("job_requeue", name=job_id, detail=why,
                             counters={"retries": float(job.retries)})

    def _poison_shard(self, job: Job, why: str) -> None:
        """Quarantine a battery shard that keeps destroying workers.

        A shard whose checks crash the *process* (not just the check --
        stage isolation already absorbs that) would burn the whole
        design's retry budget; instead the shard is marked poisoned on
        the design's finalize job, which degrades its circuit stage to
        ERROR (see :class:`repro.fleet.merge.PoisonShards`) while the
        rest of the flow -- and every other design -- completes.  The
        metadata mutation happens before :meth:`WorkQueue.poison`
        releases the finalize job's dependencies, so finalize can never
        run without seeing it.
        """
        record = {"index": job.shard.index, "count": job.shard.count,
                  "label": job.shard.label(), "reason": why}
        fin = self.jobs_by_id.get(f"{job.design}:finalize")
        if fin is None:
            # No finalize to degrade into (should not happen for
            # BATTERY jobs); fall back to failing the design.
            self.wq.fail(job.job_id)
            self.metrics.jobs_failed += 1
            self.fail_design(job.design,
                             f"{job.job_id} exhausted retries with no "
                             f"finalize job to degrade (last: {why})")
            return
        fin.metadata.setdefault("poison_shards", []).append(record)
        self.metrics.poison_shards += 1
        self.ftrace.emit("job_poisoned", name=job.job_id, detail=why,
                         counters={"retries": float(job.retries)})
        self.wq.poison(job.job_id)

    def _on_worker_dead(self, handle: _WorkerHandle) -> None:
        self.metrics.workers_dead += 1
        self.ftrace.emit("worker_dead", name=handle.wid,
                         detail=handle.job_id or "")
        orphans = self.wq.remove_worker(handle.wid)
        del self.handles[handle.wid]
        self.retired.append(handle)
        if self.respawn_budget > 0 and not self._done():
            self.respawn_budget -= 1
            self._spawn_worker()
        if self.handles:
            # Re-home under the surviving topology; release() below also
            # hashes against the new worker list.
            for orphan in orphans:
                self.wq.submit(orphan)
            if handle.job_id is not None:
                self._requeue_or_fail(handle.job_id,
                                      f"worker {handle.wid} died")

    def _on_message(self, message) -> None:
        kind, wid, job_id, payload, events = message
        if kind == "wake":
            return  # call_soon's nudge; the loop drains the injections next
        handle = self.handles.get(wid)
        if handle is None:  # straggler from a retired worker
            handle = next((h for h in self.retired if h.wid == wid), None)
        if handle is None:
            return
        handle.events.extend(events)
        handle.last_beat = self.watch.elapsed()
        if kind == "ready":
            handle.ready = True
        elif kind == "heartbeat":
            self.metrics.heartbeats += 1
            self.wq.renew(job_id, self.now())
        elif kind == "bye":
            pass
        elif kind in ("done", "error"):
            if handle.job_id == job_id:
                handle.job_id = None
            if kind == "error":
                self.ftrace.emit("job_error", name=job_id, detail=payload)
                self._requeue_or_fail(job_id, "job raised")
                return
            handle.store_counters = payload.get("store_counters", {})
            handle.peak_rss_mb = payload.get("peak_rss_mb", 0.0)
            if self.wq.is_done(job_id):
                return  # duplicate completion from a requeued straggler
            job = self.jobs_by_id.get(job_id)
            if job is None or job.design in self.failed:
                return
            self.wq.complete(job_id)
            self.metrics.record_job(job.kind.value,
                                    payload.get("job_seconds", 0.0))
            self.metrics.session_hits += int(payload.get("session_hit", False))
            self.ftrace.emit("job_done", name=job_id, status="ok",
                             wall_s=payload.get("job_seconds"))
            self.on_job_done(self, job, payload.get("result") or {})

    def _done(self) -> bool:
        return (self._stopping and len(self.results) + len(self.failed)
                >= len(self.names))

    def _run_injected(self) -> None:
        """Drain the thread-safe callback queue (one tick's worth)."""
        while True:
            try:
                fn = self._injected.get_nowait()
            except queue_mod.Empty:
                return
            fn(self)

    def _reap_hung(self, handle: _WorkerHandle, age: float) -> None:
        """Kill and replace a worker that stopped heartbeating.

        A SIGSTOPped (or syscall-wedged) process passes ``is_alive`` and
        would otherwise sit on its job until the lease -- possibly much
        longer than the watchdog deadline -- expired, then leak forever
        as a stopped zombie.  SIGKILL works on stopped processes; the
        ordinary worker-death path then requeues its job and respawns.
        """
        self.metrics.workers_hung += 1
        self.ftrace.emit("worker_hung", name=handle.wid,
                         detail=handle.job_id or "",
                         counters={"beat_age_s": round(age, 3)})
        try:
            handle.proc.kill()
        except Exception:  # noqa: BLE001 -- racing its own death
            pass
        handle.proc.join(timeout=5.0)
        self._on_worker_dead(handle)

    def _supervise(self) -> None:
        real_now = self.watch.elapsed()
        hung_after = self.config.hung_after_s
        for handle in list(self.handles.values()):
            if not handle.proc.is_alive():
                self._on_worker_dead(handle)
            elif (hung_after is not None and handle.job_id is not None
                    and real_now - handle.last_beat > hung_after):
                self._reap_hung(handle, real_now - handle.last_beat)
        for lease in self.wq.expired(self.now()):
            holder = self.handles.get(lease.worker)
            if (holder is not None and holder.proc.is_alive()
                    and holder.job_id == lease.job.job_id
                    and real_now - holder.last_beat <= self.config.lease_s):
                # The lease aged out on the scheduler clock, but the
                # holder is alive and was heard from within a real
                # lease period: a clock jump, not a lost worker.
                # Re-arm instead of burning one of the job's retries.
                self.wq.renew(lease.job.job_id, self.now())
                self.metrics.leases_rearmed += 1
                self.ftrace.emit("lease_rearmed", name=lease.job.job_id,
                                 detail=lease.worker)
                continue
            self.ftrace.emit("lease_expired", name=lease.job.job_id,
                             detail=lease.worker)
            self.metrics.lease_expirations += 1
            if holder is not None and holder.job_id == lease.job.job_id:
                holder.job_id = None
            self._requeue_or_fail(lease.job.job_id, "lease expired")

    def _assign(self) -> None:
        now = self.now()
        real_now = self.watch.elapsed()
        for handle in self.handles.values():
            if not handle.ready or handle.job_id is not None:
                continue
            lease = self.wq.next_job(handle.wid, now)
            if lease is None:
                continue
            handle.job_id = lease.job.job_id
            handle.last_beat = real_now
            self.ftrace.emit("job_lease", name=lease.job.job_id,
                             detail=handle.wid,
                             counters={"stolen": float(lease.stolen)})
            handle.inbox.put(("job", lease.job))

    def _chaos_tick(self) -> None:
        """Draw the scheduler-side faults (lease-clock jumps)."""
        if self._chaos is None:
            return
        self._ticks += 1
        if self._chaos.fire("scheduler.clock",
                            token=str(self._ticks)) == "jump":
            jump = self.config.chaos.clock_jump_s
            self._clock_skew += jump
            self.ftrace.emit("clock_jump", detail=f"+{jump}s",
                             counters={"skew_s": self._clock_skew})

    def run(self, initial_jobs) -> FleetResult:
        """Drive the event loop to completion; returns the merged result."""
        config = self.config
        self.ftrace.emit("fleet_start", counters={
            "designs": float(len(self.names)),
            "workers": float(self.workers)})
        for _ in range(self.workers):
            self._spawn_worker()
        for job in initial_jobs:
            self.submit(job)

        try:
            while not self._done():
                if (config.fleet_timeout_s is not None
                        and self.watch.elapsed() > config.fleet_timeout_s):
                    for name in self.names:
                        self.fail_design(
                            name, "fleet wall-clock bound exceeded")
                    break
                if not self.handles:
                    for name in self.names:
                        self.fail_design(
                            name, "every worker died and the respawn "
                                  "budget is spent")
                    break
                try:
                    self._on_message(self.outbox.get(timeout=config.poll_s))
                except queue_mod.Empty:
                    pass
                self._run_injected()
                self._chaos_tick()
                self._supervise()
                self._assign()
        finally:
            for handle in self.handles.values():
                try:
                    handle.inbox.put(("stop",))
                except Exception:  # noqa: BLE001 -- already dying
                    pass
            deadline = self.watch.elapsed() + 2.0
            for handle in self.handles.values():
                handle.proc.join(
                    timeout=max(0.0, deadline - self.watch.elapsed()))
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(timeout=1.0)
                handle.relay.join(timeout=1.0)
            # The relays have delivered every whole message, notably the
            # "bye"s with the final event slices.
            while True:
                try:
                    self._on_message(self.outbox.get_nowait())
                except queue_mod.Empty:
                    break

        metrics = self.metrics
        metrics.workers_alive = sum(
            1 for h in self.handles.values() if h.proc.is_alive())
        metrics.steals = self.wq.steals
        metrics.requeues = self.wq.requeues
        metrics.queue_depth = self.wq.depth()
        metrics.blocked_jobs = self.wq.blocked_count()
        metrics.active_leases = self.wq.lease_count()
        metrics.wall_s = self.watch.elapsed()
        all_handles = list(self.handles.values()) + self.retired
        metrics.write_contended = sum(
            h.store_counters.get("store_write_contended", 0)
            for h in all_handles)
        metrics.worker_peak_rss_mb = max(
            (h.peak_rss_mb for h in all_handles), default=0.0)
        try:
            from repro.store.artifact import ArtifactStore
            metrics.store_stats = ArtifactStore(config.store_dir).stats()
        except OSError:
            # A torn-down store directory costs the stat sweep, nothing
            # else: the reports are already merged.
            metrics.store_stats = {}
        self.ftrace.emit(
            "fleet_end",
            status="ok" if not self.failed else "degraded",
            wall_s=metrics.wall_s,
            counters={"designs_done": float(metrics.designs_done),
                      "designs_failed": float(metrics.designs_failed),
                      "jobs_done": float(metrics.jobs_done),
                      "steals": float(metrics.steals),
                      "requeues": float(metrics.requeues)})
        merged = CampaignTrace.merge(
            [self.ftrace] + [h.events for h in all_handles])
        return FleetResult(reports=self.results, failed=self.failed,
                           metrics=metrics, trace=merged,
                           store_dir=str(config.store_dir))


def design_flow_hook(config: FleetConfig, *, finish):
    """The design-verification job chain as an ``on_job_done`` hook.

    PREPARE sizes the battery and fans out shard + finalize jobs (or a
    single degraded finalize when the front half errored -- shard
    batteries would diverge from, or crash unlike, a single-process
    run); FINALIZE hands its merged report dict to ``finish(pool, job,
    result)``.  Both :func:`run_fleet` and the service front end
    (:mod:`repro.service`) drive their pools with this hook -- only
    what *finish* does with a sealed report differs.
    """

    def on_job_done(pool: _Pool, job: Job, result: dict) -> None:
        if job.kind is JobKind.PREPARE:
            if result.get("degraded"):
                pool.submit(finalize_job(job.design, job.bundle_ref, []))
                return
            shards = battery_jobs(job.design, job.bundle_ref,
                                  int(result.get("cccs", 0)), config)
            for shard_job in shards:
                pool.submit(shard_job)
            pool.submit(finalize_job(job.design, job.bundle_ref, shards))
        elif job.kind is JobKind.FINALIZE:
            finish(pool, job, result)

    return on_job_done


def run_fleet(suite: dict, *, workers: int = 4,
              config: FleetConfig | None = None) -> FleetResult:
    """Verify every design in ``suite`` on a worker-process fleet.

    ``suite`` maps design name -> bundle reference (an importable
    zero-argument factory or a ``"module:attr"`` string -- see
    :func:`repro.fleet.jobs.resolve_bundle`; it must be picklable).
    ``workers`` processes share one artifact store
    (``config.store_dir``, a fresh temporary directory when unset).
    """
    if not suite:
        raise ValueError("suite is empty")
    config = config or FleetConfig()

    def finish(pool: _Pool, job: Job, result: dict) -> None:
        pool.finish(job.design, report_from_dict(result["report"]))
        pool.ftrace.emit(
            "design_done", name=job.design,
            status="ok" if result.get("ok") else "needs-triage")

    pool = _Pool(workers=workers, config=config,
                 on_job_done=design_flow_hook(config, finish=finish))
    for name in suite:
        pool.add_design(name)
    pool.request_stop()
    return pool.run([prepare_job(name, ref) for name, ref in suite.items()])


def run_scenario_fleet(scenarios: dict, *, workers: int = 4,
                       shards: int = 8,
                       config: FleetConfig | None = None) -> FleetResult:
    """Run fuzz / Monte-Carlo campaigns on a worker-process fleet.

    ``scenarios`` maps campaign name -> scenario reference (a picklable
    :class:`~repro.scenarios.spec.FuzzSpec` /
    :class:`~repro.scenarios.spec.MonteCarloSpec`, a factory, or a
    ``"module:attr"`` string).  Each campaign's sample range is split
    into up to ``shards`` contiguous shard jobs (every seed re-derived
    in the worker from the spec), plus one rollup job gated on all of
    them.  ``result.reports[name]`` is the campaign's
    :class:`~repro.scenarios.report.ScenarioReport`, canonically
    byte-identical to ``ScenarioCampaign(spec, shards).run()`` -- the
    shard layout matters to checkpoint keys, so pass the same
    ``shards`` to compare runs, not the same worker count.
    """
    if not scenarios:
        raise ValueError("scenarios is empty")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    config = config or FleetConfig()
    from repro.scenarios.report import ScenarioReport
    from repro.scenarios.spec import resolve_scenario

    def on_job_done(pool: _Pool, job: Job, result: dict) -> None:
        if job.kind is JobKind.ROLLUP:
            pool.finish(job.design, ScenarioReport.from_dict(result["report"]))
            pool.ftrace.emit(
                "design_done", name=job.design,
                status="ok" if result.get("ok") else "needs-triage")

    initial: list[Job] = []
    for name, ref in scenarios.items():
        spec = resolve_scenario(ref)
        shard_jobs = scenario_jobs(name, ref, spec.total_samples(), shards)
        initial.extend(shard_jobs)
        initial.append(scenario_rollup_job(name, ref, shard_jobs))

    pool = _Pool(workers=workers, config=config, on_job_done=on_job_done)
    for name in scenarios:
        pool.add_design(name)
    pool.request_stop()
    return pool.run(initial)
