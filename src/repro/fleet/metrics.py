"""Live fleet counters and their Prometheus text rendering.

:class:`FleetMetrics` is the scheduler's scoreboard: it is mutated in
place by the event loop (one writer, no locks needed) and snapshotted
on demand -- into the final :class:`~repro.fleet.scheduler.FleetResult`,
into the CLI's end-of-run summary, and into the Prometheus text
exposition format via :func:`render_prometheus` for scraping or for
dropping next to a benchmark JSON.  Each exported series, with its
HELP text and type, is declared in :mod:`repro.perf.metrics`.

Everything here is plain data; nothing imports multiprocessing, so the
module is safe to use from tests and report scripts alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.metrics import prometheus_text


@dataclass
class FleetMetrics:
    """Counters for one fleet run, updated live by the scheduler."""

    workers: int = 0              # configured pool size
    workers_alive: int = 0
    workers_spawned: int = 0      # includes replacements
    workers_dead: int = 0         # detected deaths (crash or SIGKILL)

    workers_hung: int = 0         # reaped by the heartbeat-age watchdog

    designs: int = 0
    designs_done: int = 0
    designs_failed: int = 0

    jobs_submitted: int = 0
    jobs_done: int = 0
    jobs_failed: int = 0
    #: Battery shards quarantined after repeatedly killing their
    #: workers; their designs degrade instead of failing.
    poison_shards: int = 0
    retries: int = 0
    steals: int = 0
    requeues: int = 0
    lease_expirations: int = 0
    #: Leases that expired on the scheduler clock but whose holder was
    #: demonstrably alive and beating (a clock jump, not a lost
    #: worker); renewed in place without burning a retry.
    leases_rearmed: int = 0
    heartbeats: int = 0

    queue_depth: int = 0          # runnable, unleased
    blocked_jobs: int = 0         # waiting on dependencies
    active_leases: int = 0

    write_contended: int = 0      # summed over worker stores
    #: Completed design jobs whose worker still held their design's
    #: session (see :mod:`repro.fleet.session`).
    session_hits: int = 0
    #: Largest peak RSS any worker reported, in MiB.
    worker_peak_rss_mb: float = 0.0
    wall_s: float = 0.0

    #: Cumulative worker-side seconds per job kind ("prepare",
    #: "battery", "finalize").
    stage_wall_s: dict[str, float] = field(default_factory=dict)
    #: Completed jobs per kind.
    jobs_by_kind: dict[str, int] = field(default_factory=dict)
    #: End-of-run snapshot of the shared artifact store
    #: (:meth:`repro.store.artifact.ArtifactStore.stats`): entries,
    #: total_bytes, quarantine_depth, degraded.
    store_stats: dict = field(default_factory=dict)

    def record_job(self, kind: str, seconds: float) -> None:
        self.jobs_done += 1
        self.jobs_by_kind[kind] = self.jobs_by_kind.get(kind, 0) + 1
        self.stage_wall_s[kind] = self.stage_wall_s.get(kind, 0.0) + seconds


def render_prometheus(metrics: FleetMetrics) -> str:
    """Render the metrics in Prometheus text exposition format."""
    return prometheus_text("repro_fleet", metrics,
                           ("stage_wall_seconds", metrics.stage_wall_s),
                           ("jobs_done_by_kind", metrics.jobs_by_kind),
                           store_stats=metrics.store_stats)
