"""Live fleet counters and their Prometheus text rendering.

:class:`FleetMetrics` is the scheduler's scoreboard: it is mutated in
place by the event loop (one writer, no locks needed) and snapshotted
on demand -- into the final :class:`~repro.fleet.scheduler.FleetResult`,
into the CLI's end-of-run summary, and into the Prometheus text
exposition format via :func:`render_prometheus` for scraping or for
dropping next to a benchmark JSON.

Everything here is plain data; nothing imports multiprocessing, so the
module is safe to use from tests and report scripts alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "workers_alive": self.workers_alive,
            "workers_spawned": self.workers_spawned,
            "workers_dead": self.workers_dead,
            "workers_hung": self.workers_hung,
            "designs": self.designs,
            "designs_done": self.designs_done,
            "designs_failed": self.designs_failed,
            "jobs_submitted": self.jobs_submitted,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "poison_shards": self.poison_shards,
            "retries": self.retries,
            "steals": self.steals,
            "requeues": self.requeues,
            "lease_expirations": self.lease_expirations,
            "leases_rearmed": self.leases_rearmed,
            "heartbeats": self.heartbeats,
            "queue_depth": self.queue_depth,
            "blocked_jobs": self.blocked_jobs,
            "active_leases": self.active_leases,
            "write_contended": self.write_contended,
            "session_hits": self.session_hits,
            "worker_peak_rss_mb": self.worker_peak_rss_mb,
            "wall_s": self.wall_s,
            "stage_wall_s": dict(sorted(self.stage_wall_s.items())),
            "jobs_by_kind": dict(sorted(self.jobs_by_kind.items())),
            "store_stats": dict(sorted(self.store_stats.items())),
        }


#: (field, HELP text, TYPE) for the scalar series.
_SCALARS = (
    ("workers", "Configured worker pool size.", "gauge"),
    ("workers_alive", "Worker processes currently alive.", "gauge"),
    ("workers_spawned", "Worker processes spawned, including "
     "replacements.", "counter"),
    ("workers_dead", "Worker deaths detected by the supervisor.",
     "counter"),
    ("workers_hung", "Hung workers (no heartbeat within the watchdog "
     "deadline, e.g. SIGSTOP) killed and replaced.", "counter"),
    ("designs", "Designs in the suite.", "gauge"),
    ("designs_done", "Designs with a merged report.", "counter"),
    ("designs_failed", "Designs abandoned after retry exhaustion.",
     "counter"),
    ("jobs_submitted", "Jobs submitted to the work queue.", "counter"),
    ("jobs_done", "Jobs completed successfully.", "counter"),
    ("jobs_failed", "Jobs dropped after exhausting retries.", "counter"),
    ("poison_shards", "Battery shards quarantined after repeatedly "
     "killing their workers (design degrades, not fails).", "counter"),
    ("retries", "Job retry attempts.", "counter"),
    ("steals", "Jobs stolen from a peer worker's deque.", "counter"),
    ("requeues", "Jobs requeued after a lost lease.", "counter"),
    ("lease_expirations", "Leases expired or broken by worker death.",
     "counter"),
    ("leases_rearmed", "Expired leases renewed in place because the "
     "holder was alive and beating (clock jump).", "counter"),
    ("heartbeats", "Heartbeat messages received.", "counter"),
    ("queue_depth", "Runnable jobs queued and unleased.", "gauge"),
    ("blocked_jobs", "Jobs waiting on dependencies.", "gauge"),
    ("active_leases", "Jobs currently leased to workers.", "gauge"),
    ("write_contended", "Artifact-store writes that met a concurrent "
     "writer.", "counter"),
    ("wall_s", "Fleet wall-clock seconds.", "gauge"),
)


def render_prometheus(metrics: FleetMetrics,
                      prefix: str = "repro_fleet") -> str:
    """Render the metrics in Prometheus text exposition format."""
    lines: list[str] = []
    for name, help_text, kind in _SCALARS:
        full = f"{prefix}_{name}"
        value = getattr(metrics, name)
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        lines.append(f"{full} {value}")
    full = f"{prefix}_stage_wall_seconds"
    lines.append(f"# HELP {full} Cumulative worker seconds per job kind.")
    lines.append(f"# TYPE {full} counter")
    for kind, seconds in sorted(metrics.stage_wall_s.items()):
        lines.append(f'{full}{{kind="{kind}"}} {seconds}')
    full = f"{prefix}_jobs_done_by_kind"
    lines.append(f"# HELP {full} Completed jobs per job kind.")
    lines.append(f"# TYPE {full} counter")
    for kind, count in sorted(metrics.jobs_by_kind.items()):
        lines.append(f'{full}{{kind="{kind}"}} {count}')
    lines.extend(render_store_stats(metrics.store_stats, prefix=prefix))
    return "\n".join(lines) + "\n"


#: (stats key, metric suffix, HELP text) for the store-stats gauges.
_STORE_GAUGES = (
    ("entries", "store_entries", "Checkpoint blobs in the shared "
     "artifact store."),
    ("total_bytes", "store_bytes", "Bytes of checkpoint blobs in the "
     "shared artifact store."),
    ("quarantine_depth", "store_quarantine_depth", "Corrupt blobs "
     "quarantined by the shared artifact store."),
    ("degraded", "store_degraded", "1 when the store is in ENOSPC "
     "degraded (write-nothing) mode."),
)


def render_store_stats(stats: dict,
                       prefix: str = "repro_fleet") -> list[str]:
    """Prometheus lines for one ``ArtifactStore.stats()`` snapshot.

    Empty when the snapshot is (a fleet that never had a store to
    sweep); shared by the fleet and service exporters so the store
    series have one spelling.
    """
    if not stats:
        return []
    lines: list[str] = []
    for key, suffix, help_text in _STORE_GAUGES:
        full = f"{prefix}_{suffix}"
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {int(stats.get(key, 0))}")
    return lines
