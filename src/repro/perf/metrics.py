"""The metrics table: every metric a report or an exporter carries.

Reports carry counters as stage ``metrics`` and trace-event
``counters``; the fleet and the service export scoreboards as
Prometheus text.  Each metric is declared once, under the key it is
emitted as (a report counter's bare key, an exported series' full
name), with its kind (``counter`` or ``gauge``), its unit, whether a
report's canonical form keeps it -- a run *fact* -- or drops it as run
mechanics (wall clock, cache and store effectiveness, worker counts),
and an exported series' HELP text and label.  :func:`metric` raises
``ValueError`` naming an undeclared key, so no counter reaches a
canonical report before its declaration says whether it belongs there.
:func:`prometheus_text` writes the text exposition
(https://prometheus.io/docs/instrumenting/exposition_formats/).
"""

from __future__ import annotations

from dataclasses import fields
from typing import NamedTuple

COUNTER, GAUGE = "counter", "gauge"


class Metric(NamedTuple):
    """One declared metric (the table's key is its name)."""

    kind: str
    unit: str
    canonical: bool
    help: str = ""
    #: The label an exported series is broken down by, if any.
    label: str | None = None


def _table(*groups) -> dict[str, Metric]:
    table: dict[str, Metric] = {}
    for names, declared in groups:
        for name in names:
            if name in table:
                raise ValueError(f"metric {name!r} is declared twice")
            table[name] = declared
    return table


def _series(prefix: str, kind: str, unit: str, *rows,
            label: str | None = None) -> tuple:
    """Groups for exported ``(name, HELP)`` series under ``prefix``; no
    exported series is a report fact."""
    return tuple(((f"{prefix}_{name}",), Metric(kind, unit, False, text,
                                                label))
                 for name, text in rows)


#: The store gauges both exporters write from one ``ArtifactStore.stats()``
#: snapshot: ``(series, stats key, unit, HELP)``, in exposition order.
_STORE_STATS = (
    ("store_entries", "entries", "count",
     "Checkpoint blobs in the shared artifact store."),
    ("store_bytes", "total_bytes", "bytes",
     "Bytes of checkpoint blobs in the shared artifact store."),
    ("store_quarantine_depth", "quarantine_depth", "count",
     "Corrupt blobs quarantined by the shared artifact store."),
    ("store_degraded", "degraded", "flag",
     "1 when the store is in ENOSPC degraded (write-nothing) mode."),
)


METRICS: dict[str, Metric] = _table(
    # -- report facts: what a campaign or scenario concluded --------------
    (("transistors", "nets", "erc_violations", "cccs", "clocks", "storage",
      "dynamic_nodes", "breaks", "coupled_nets", "outputs_checked",
      "mismatches", "sim_steps", "packed_rows", "packed_paths",
      "packed_conditions", "packed_max_wave", "checks", "findings",
      "crashes", "inspect", "violations", "check_crashes",
      "setup_violations", "races", "arc_cache_entries", "stages", "errors",
      "open_items", "samples", "compared", "agreements", "unknowns"),
     Metric(GAUGE, "count", True)),
    # Work counts: fixed by the design and the flow, not by the run's
    # history.  ``arc_cache_*`` pins every digest; retiring
    # ``ArcPriceCache`` means a benchmark PR that flips them here.
    (("sim_events", "ccc_evaluations", "net_solves", "naive_net_solves",
      "settle_calls", "solve_count", "skip_count", "vector_passes",
      "vector_wasted_evals", "sta_full_propagations",
      "sta_incremental_propagations", "sta_nets_propagated",
      "sta_nets_repropagated", "sta_cones_repropagated",
      "sta_endpoint_cache_hits", "level_builds", "arc_cache_hits",
      "arc_cache_misses"),
     Metric(COUNTER, "count", True)),
    (("width_um",), Metric(GAUGE, "um", True)),
    (("min_cycle_s",), Metric(GAUGE, "s", True)),
    (("auto_cleared_fraction", "agreement_rate", "reduction_x", "cap_factor",
      "factor_clock_load", "factor_clock_rate", "factor_reduce_functions",
      "factor_scale_process", "factor_vdd_reduction"),
     Metric(GAUGE, "ratio", True)),
    (("seed",), Metric(GAUGE, "id", True)),
    (("final_power_w",), Metric(GAUGE, "W", True)),
    (("vdd_v",), Metric(GAUGE, "V", True)),
    (("temperature_c",), Metric(GAUGE, "degC", True)),
    # -- report mechanics: dropped by the canonical form -----------------
    # Memo, cache and store effectiveness depend on what the process or
    # the store held before; sweep counts on which consumer warmed the
    # CCC path caches first; how the vector engine settled its solves
    # (by reach or from stamped path rows) is engine mechanics.
    (("classify_hits", "classify_misses", "gate_hits", "gate_misses",
      "cache_hits", "cache_misses", "cache_ccc_hits", "cache_ccc_misses",
      "target_sweeps", "path_cache_hits", "packed_template_hits",
      "reach_solves", "row_solves", "stamped_paths", "store_hits",
      "store_misses", "store_writes", "store_corrupt",
      "store_write_contended", "store_writes_retried", "store_writes_failed",
      "store_writes_skipped", "store_quarantine_swept"),
     Metric(COUNTER, "count", False)),
    (("store_degraded",), Metric(GAUGE, "flag", False)),
    (("battery_seconds", "table_build_seconds"), Metric(GAUGE, "s", False)),
    # ``workers`` (processes that ran the battery) differs between serial
    # and sharded runs; the rest appear only in the fleet's own trace and
    # the service's event stream, never in a report.
    (("workers", "designs", "retries", "stolen", "launch_index"),
     Metric(GAUGE, "count", False)),
    (("designs_done", "designs_failed", "jobs_done", "steals", "requeues"),
     Metric(COUNTER, "count", False)),
    (("beat_age_s", "skew_s"), Metric(GAUGE, "s", False)),
    # -- the fleet scoreboard (FleetMetrics) ------------------------------
    *_series("repro_fleet", GAUGE, "count",
             ("workers", "Configured worker pool size."),
             ("workers_alive", "Worker processes currently alive."),
             ("designs", "Designs in the suite."),
             ("queue_depth", "Runnable jobs queued and unleased."),
             ("blocked_jobs", "Jobs waiting on dependencies."),
             ("active_leases", "Jobs currently leased to workers.")),
    *_series("repro_fleet", COUNTER, "count",
             ("workers_spawned",
              "Worker processes spawned, including replacements."),
             ("workers_dead", "Worker deaths detected by the supervisor."),
             ("workers_hung", "Hung workers (no heartbeat within the "
              "watchdog deadline, e.g. SIGSTOP) killed and replaced."),
             ("designs_done", "Designs with a merged report."),
             ("designs_failed", "Designs abandoned after retry exhaustion."),
             ("jobs_submitted", "Jobs submitted to the work queue."),
             ("jobs_done", "Jobs completed successfully."),
             ("jobs_failed", "Jobs dropped after exhausting retries."),
             ("poison_shards", "Battery shards quarantined after repeatedly "
              "killing their workers (design degrades, not fails)."),
             ("retries", "Job retry attempts."),
             ("steals", "Jobs stolen from a peer worker's deque."),
             ("requeues", "Jobs requeued after a lost lease."),
             ("lease_expirations",
              "Leases expired or broken by worker death."),
             ("leases_rearmed", "Expired leases renewed in place because the "
              "holder was alive and beating (clock jump)."),
             ("heartbeats", "Heartbeat messages received."),
             ("write_contended",
              "Artifact-store writes that met a concurrent writer.")),
    *_series("repro_fleet", GAUGE, "s",
             ("wall_s", "Fleet wall-clock seconds.")),
    *_series("repro_fleet", COUNTER, "s",
             ("stage_wall_seconds", "Cumulative worker seconds per job kind."),
             label="kind"),
    *_series("repro_fleet", COUNTER, "count",
             ("jobs_done_by_kind", "Completed jobs per job kind."),
             label="kind"),
    # -- the service scoreboard (ServiceMetrics and what it reads) -------
    *_series("repro_service", COUNTER, "count",
             ("submissions", "Submit requests received."),
             ("admitted", "Submissions admitted to a tenant queue."),
             ("rejected", "Submissions refused with backpressure."),
             ("cache_hits", "Submissions answered from the verdict cache "
              "with zero battery executions."),
             ("coalesced",
              "Submissions joined onto an identical in-flight campaign."),
             ("launched", "Campaigns handed to the fleet pool."),
             ("sealed", "Campaign reports sealed and delivered."),
             ("failed", "Campaigns the fleet abandoned."),
             ("verdict_hits",
              "Verdict-cache lookups answered from the store."),
             ("verdict_misses", "Verdict-cache lookups that ran a campaign."),
             ("verdict_seals", "Sealed reports written to the verdict cache."),
             ("verdict_rejected", "Cache blobs invalidated for a bad shape.")),
    *_series("repro_service", GAUGE, "ratio",
             ("tenant_weight", "Configured fair-share weight."),
             label="tenant"),
    *_series("repro_service", GAUGE, "count",
             ("tenant_queue_depth",
              "Admitted campaigns waiting for a fair-share grant."),
             ("tenant_inflight", "Campaigns currently on the fleet pool."),
             label="tenant"),
    *_series("repro_service", COUNTER, "count",
             ("tenant_admitted", "Submissions admitted."),
             ("tenant_rejected", "Submissions refused with backpressure."),
             ("tenant_granted", "Fair-share grants drained to the pool."),
             label="tenant"),
    *(((f"{prefix}_{name}",), Metric(GAUGE, unit, False, text))
      for prefix in ("repro_fleet", "repro_service")
      for name, _, unit, text in _STORE_STATS),
)


def metric(name: str) -> Metric:
    """The declaration of ``name``; ``ValueError`` names an undeclared one."""
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(
            f"metric {name!r} is not declared in repro.perf.metrics") from None


def prometheus_text(prefix: str, board, *series,
                    store_stats: dict | None = None) -> str:
    """Prometheus text exposition of one scoreboard.

    ``board`` is a dataclass: each of its fields the table declares as
    ``f"{prefix}_{field}"`` is one series, in field order (a field it
    does not declare is not exported).  ``series`` adds ``(name,
    value)`` pairs after them; a labelled series' value maps label
    values to samples, written in sorted order.  A non-empty
    ``store_stats`` (one ``ArtifactStore.stats()`` snapshot) adds the
    store gauges last.  Every name is looked up in the table, so an
    undeclared one raises.
    """
    rows = [(f.name, getattr(board, f.name)) for f in fields(board)
            if f"{prefix}_{f.name}" in METRICS]
    rows.extend(series)
    if store_stats:
        rows.extend((name, int(store_stats.get(key, 0)))
                    for name, key, *_ in _STORE_STATS)
    lines: list[str] = []
    for name, value in rows:
        full = f"{prefix}_{name}"
        declared = metric(full)
        lines.append(f"# HELP {full} {declared.help}")
        lines.append(f"# TYPE {full} {declared.kind}")
        if declared.label is None:
            lines.append(f"{full} {value}")
        else:
            lines.extend(f'{full}{{{declared.label}="{key}"}} {sample}'
                         for key, sample in sorted(value.items()))
    return "\n".join(lines) + "\n"
