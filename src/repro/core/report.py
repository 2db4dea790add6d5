"""Text and JSON rendering of a CBV report and its campaign trace.

Two JSON shapes exist:

* the **full** form (default) -- everything the run recorded, including
  wall-clock timings and cache/store effectiveness counters; what a CI
  dashboard trends.
* the **canonical** form (``canonical=True``) -- the run's *facts* only:
  wall-clock fields, cache/store/chaos counters, worker ids / worker
  counts, and ``checkpoint.*`` / ``store.*`` trace events are stripped.
  Two runs over the same design produce byte-identical canonical JSON
  whether they ran cold, resumed from a checkpoint store, had their
  battery sharded across a :mod:`repro.fleet` worker pool, or survived
  an injected fault schedule (:mod:`repro.chaos`);
  this is the form the resume, fleet, and chaos acceptance tests (and
  the CI smoke jobs) compare.

``report_from_dict`` is the exact inverse of ``report_to_dict`` for
everything the dict carries: stages (all statuses, including ERROR
tracebacks in ``details``), the designer queue with waivers, and the
trace event log.  The heavyweight in-memory artifacts (``flat`` /
``design`` / ``timing``) are not serialized here -- the checkpoint store
(:mod:`repro.store`) owns those.
"""

from __future__ import annotations

import json

from repro.checks.base import Severity
from repro.core.campaign import CbvReport
from repro.core.stages import StageResult, StageStatus
from repro.core.trace import CampaignTrace
from repro.core.triage import QueueItem

_STATUS_MARK = {
    StageStatus.PASS: "ok",
    StageStatus.ATTENTION: "ATTN",
    StageStatus.FAIL: "FAIL",
    StageStatus.SKIPPED: "--",
    StageStatus.ERROR: "ERR!",
}

#: Metric / counter keys that record how fast (or how cached) a run was,
#: not what it concluded; the canonical form drops them.
_NONCANONICAL_KEYS = frozenset({
    "wall_s", "seconds", "battery_seconds",
    # classification-memo effectiveness (process-history dependent)
    "classify_hits", "classify_misses", "gate_hits", "gate_misses",
    # how many processes ran the battery (run mechanics, not a verdict;
    # serial and fleet-sharded runs must compare identical)
    "workers",
    # setup-path effectiveness: sweep counts depend on which consumer
    # warmed the shared CCC path caches first, and template hits count
    # work saved, not work concluded; likewise how the vector engine
    # settled its solves (by reach or from path rows) and how many paths
    # it stamped to do so.
    "target_sweeps", "path_cache_hits", "packed_template_hits",
    "reach_solves", "row_solves", "stamped_paths",
    # fleet supervision events (which worker hung or which shard was
    # quarantined is run mechanics; the degraded *verdict* itself rides
    # in the stage statuses, which the canonical form keeps)
    "workers_hung", "poison_shards", "leases_rearmed",
})
#: ``chaos_`` covers injected-fault totals: a survivable fault schedule
#: must leave the canonical report identical to a fault-free run, so
#: injection bookkeeping cannot appear in it.
_NONCANONICAL_PREFIXES = ("store_", "cache_", "chaos_")
#: Trace-event namespaces that record durability/degradation mechanics,
#: not conclusions: ``checkpoint.*`` (hit/write/corrupt/rerun) and
#: ``store.*`` (e.g. ``store.degraded``) both drop from canonical form.
_NONCANONICAL_EVENT_PREFIXES = ("checkpoint.", "store.")


def is_canonical_key(key: str) -> bool:
    """True when a metric/counter key is a run *fact* (kept by the
    canonical form) rather than run mechanics (wall clock, cache and
    store effectiveness, worker counts)."""
    return not (key in _NONCANONICAL_KEYS
                or key.endswith("_seconds")
                or key.startswith(_NONCANONICAL_PREFIXES))


def canonical_counters(counters: dict) -> dict:
    """The canonical subset of a counters dict.

    Public because every report family that honours the byte-identical
    contract -- campaign reports here, scenario rollups in
    :mod:`repro.scenarios.report` -- must strip the same keys.
    """
    return {k: v for k, v in counters.items() if is_canonical_key(k)}


def render_report(report: CbvReport, max_queue_items: int = 20) -> str:
    """Human-readable campaign summary (the designer's morning read)."""
    lines = [f"=== CBV campaign: {report.bundle_name} ==="]
    for stage in report.stages:
        mark = _STATUS_MARK[stage.status]
        lines.append(f"[{mark:>4}] {stage.stage.value}: {stage.summary}")
        for detail in stage.details[:5]:
            lines.append(f"        - {detail}")
    errored = report.errored_stages()
    if errored:
        lines.append(f"--- {len(errored)} stage(s) ERRORED (tool faults, "
                     f"not design verdicts) ---")
    open_items = report.queue.open_items()
    lines.append(f"--- designer queue: {len(open_items)} open item(s), "
                 f"{'tapeout-clean' if report.queue.tapeout_clean() else 'NOT clean'} ---")
    for item in open_items[:max_queue_items]:
        dup = f" (x{item.count})" if item.count > 1 else ""
        lines.append(f"  [{item.severity.value:>9}] {item.source} / "
                     f"{item.subject}: {item.message}{dup}")
    if len(open_items) > max_queue_items:
        lines.append(f"  ... and {len(open_items) - max_queue_items} more")
    return "\n".join(lines)


#: Setup-path counters worth a second trace line, in display order.
#: ``(key, short label)`` -- zeros are elided so quiet stages stay one
#: line; ``table_build_seconds`` keeps its unit.
_SETUP_TRACE_KEYS = (
    ("table_build_seconds", "build"),
    ("target_sweeps", "tsweeps"),
    ("path_cache_hits", "path-hits"),
    ("packed_template_hits", "tpl-hits"),
    ("reach_solves", "reach"),
    ("row_solves", "rows"),
    ("stamped_paths", "stamped"),
)


def _setup_line(counters: dict) -> str | None:
    parts = []
    for key, label in _SETUP_TRACE_KEYS:
        value = counters.get(key)
        if not value:
            continue
        if key.endswith("_seconds"):
            parts.append(f"{label}={value:.2f}s")
        else:
            parts.append(f"{label}={value:g}")
    return " ".join(parts) if parts else None


def render_trace(trace: CampaignTrace, max_events: int | None = None) -> str:
    """Human-readable event log (one line per trace event).

    Stages that exercised the setup path (packed-table builds, path
    sweeps) get a second, indented ``setup:`` line so a
    designer can see at a glance where build time went and what the
    caches saved.
    """
    lines = [f"=== campaign trace: {len(trace.events)} event(s), "
             f"{trace.total_seconds() * 1e3:.1f} ms ==="]
    events = trace.events if max_events is None else trace.events[:max_events]
    for e in events:
        status = f" [{e.status}]" if e.status else ""
        wall = f" ({e.wall_s * 1e3:.2f} ms)" if e.wall_s is not None else ""
        lines.append(f"  t+{e.t_s * 1e3:9.2f}ms {e.event:<14} "
                     f"{e.name}{status}{wall}")
        setup = _setup_line(e.counters) if e.counters else None
        if setup is not None:
            lines.append(f"{'':>15} setup: {setup}")
    if max_events is not None and len(trace.events) > max_events:
        lines.append(f"  ... and {len(trace.events) - max_events} more")
    return "\n".join(lines)


def trace_to_dicts(trace: CampaignTrace, canonical: bool) -> list[dict]:
    """Serialize a trace, optionally in the canonical form.

    Canonical: ``checkpoint.*`` and ``store.*`` events drop out
    entirely (resume/degradation mechanics, not conclusions), and each
    surviving event loses its sequencing/timing/worker stamps and its
    non-canonical counters.  Shared with the scenario report family for
    the same reason as :func:`canonical_counters`.
    """
    if not canonical:
        return trace.to_dicts()
    out = []
    for e in trace.events:
        if e.event.startswith(_NONCANONICAL_EVENT_PREFIXES):
            continue
        d = e.to_dict()
        for key in ("seq", "t_s", "wall_s", "worker"):
            d.pop(key, None)
        if "counters" in d:
            counters = canonical_counters(d["counters"])
            if counters:
                d["counters"] = counters
            else:
                del d["counters"]
        out.append(d)
    return out


def report_to_dict(report: CbvReport, canonical: bool = False) -> dict:
    """Machine-readable campaign summary (CI dashboards, trend lines).

    ``canonical=True`` yields the run-order-independent form: wall-clock
    and cache/store-effectiveness values and ``checkpoint.*`` trace
    events are stripped, so a resumed run and a cold run of the same
    design serialize identically.
    """
    return {
        "design": report.bundle_name,
        "ok": report.ok(),
        "tapeout_clean": report.queue.tapeout_clean(),
        "stages": [
            (dict(s.to_dict(), metrics=canonical_counters(s.metrics))
             if canonical else s.to_dict())
            for s in report.stages
        ],
        "queue": [
            {
                "source": i.source,
                "subject": i.subject,
                "severity": i.severity.value,
                "message": i.message,
                "count": i.count,
                "waived": i.waived,
                "waive_reason": i.waive_reason,
            }
            for i in report.queue.items
        ],
        "trace": trace_to_dicts(report.trace, canonical),
    }


def report_from_dict(data: dict) -> CbvReport:
    """Inverse of :func:`report_to_dict` (full form).

    Restores every serialized field -- stages of any status (ERROR
    tracebacks ride in ``details``), queue items with waiver state and
    duplicate counts, and the trace event log.  ``flat`` / ``design`` /
    ``timing`` are not part of the dict and come back ``None``; the
    derived ``ok`` / ``tapeout_clean`` entries are recomputed from the
    restored state rather than trusted.
    """
    report = CbvReport(bundle_name=str(data["design"]))
    for s in data.get("stages", []):
        report.stages.append(StageResult.from_dict(s))
    for i in data.get("queue", []):
        report.queue.items.append(QueueItem(
            source=str(i["source"]),
            subject=str(i["subject"]),
            severity=Severity(i["severity"]),
            message=str(i["message"]),
            waived=bool(i.get("waived", False)),
            waive_reason=str(i.get("waive_reason", "")),
            count=int(i.get("count", 1)),
        ))
    report.trace = CampaignTrace.from_dicts(data.get("trace", []))
    return report


def report_to_json(report: CbvReport, indent: int = 2,
                   canonical: bool = False) -> str:
    """JSON text of :func:`report_to_dict`."""
    return json.dumps(report_to_dict(report, canonical=canonical),
                      indent=indent, sort_keys=True)
