"""Structured campaign event log (JSON-lines).

The paper's flow runs on "several hundred workstations"; what makes that
operable is not that nothing fails but that every run leaves an audit
trail the designer (or CI) can replay the next morning.  A
:class:`CampaignTrace` is that trail: an append-only sequence of
:class:`TraceEvent` records -- campaign/stage/battery/check start and
stop, wall-clock, perf counters, and crash events with their tracebacks.

The serialized form is JSON-lines (one event object per line), chosen so
a trace can be streamed to disk as it happens, concatenated across
designs, and grepped by CI without a parser.  Event kinds:

================  ===========================================================
``campaign_start``  one per :meth:`CbvCampaign.run`, ``name`` = bundle name
``stage_start``     a flow stage began
``stage_end``       it finished; ``status`` is the StageStatus value,
                    ``counters`` the stage metrics, ``detail`` the
                    traceback when the status is ``error``
``stage_skipped``   the stage never ran (upstream artifacts missing)
``battery_start``   the check battery began (``counters``: checks, workers)
``check_start``     one check dispatched
``check_end``       it finished; ``status`` ``ok``/``crash``
``check_crash``     a check raised or timed out; ``detail`` carries the
                    traceback
``battery_end``     battery totals
``campaign_end``    run totals (``counters`` include cache counters)
================  ===========================================================

Checkpointed runs (``CbvCampaign.run(store=...)``)
additionally emit a ``checkpoint.*`` namespace:

=======================  ===================================================
``checkpoint.hit``         a stage was replayed from the store; its original
                           stage-scoped events are re-emitted just before
``checkpoint.rerun``       a checkpoint existed but its status (ERROR /
                           SKIPPED / crashed battery) forces re-execution
``checkpoint.corrupt``     a stored blob failed verification; it was
                           quarantined and the stage re-runs, or the
                           fleet shard read raises (``detail`` carries
                           the diagnosis)
``checkpoint.write``       a completed stage was durably checkpointed
``checkpoint.write_error`` the checkpoint write itself failed; the
                           campaign continues without durability for
                           that stage
``store.degraded``         the store entered ENOSPC degraded mode;
                           emitted once per campaign, after which the
                           run continues un-checkpointed (see
                           :class:`repro.store.checkpoint.CheckpointWriter`)
=======================  ===================================================

``checkpoint.*`` and ``store.*`` events (and wall-clock fields) are
stripped by the canonical report form (``report_to_json(report,
canonical=True)``), which is how a resumed run's report -- or a run that
degraded to un-checkpointed on a full disk -- is byte-comparable to a
cold run's.

The fleet scheduler's own log (:attr:`FleetResult.trace
<repro.fleet.scheduler.FleetResult>`, never part of a design report)
adds supervision events: ``worker_hung`` (heartbeat-age watchdog reaped
a stopped/wedged worker), ``lease_rearmed`` (an expired lease renewed
because its holder was provably alive -- a clock jump, not a loss),
``job_poisoned`` (a battery shard quarantined after repeatedly killing
workers), and ``clock_jump`` (an injected scheduler-clock skew).

Timestamps (``t_s``) are seconds since the trace's own monotonic epoch
(:class:`repro.perf.Stopwatch`); ``started_at`` on the trace anchors that
epoch to the wall clock for log correlation.

Multi-process runs (:mod:`repro.fleet`) give each trace a ``worker_id``;
every event is stamped with it, so ``(worker, seq)`` is a stable identity
across an entire fleet and :meth:`CampaignTrace.merge` can interleave
per-worker logs in a deterministic, reproducible order.  Worker ids --
like wall-clock fields -- are run mechanics, not conclusions, and are
stripped by the canonical report form.

Scenario campaigns (:mod:`repro.scenarios`) reuse the same envelope --
``campaign_start`` / ``campaign_end`` with the spec name -- and add one
kind of their own:

==================  ========================================================
``scenario.sample``   one fuzz or Monte-Carlo sample finished; ``name`` is
                      ``<spec>[<index>]``, ``status`` ``ok``/``mismatch``,
                      and ``counters`` carry the sample's metrics
                      (including its derived 48-bit seed, exact in the
                      float counter fields)
==================  ========================================================

Sample events are canonical -- they are the per-sample record the rollup
statistics summarize -- while the ``checkpoint.*`` events a resumed
scenario run interleaves are stripped, which is how serial, resumed, and
fleet scenario reports stay byte-comparable.

The verification service (:mod:`repro.service`) gives every campaign a
per-campaign event *stream* (worker id ``service``) whose ``seq`` is the
client's resume cursor (see
:meth:`repro.service.server.CampaignRecord.events`).  It adds a
``service.*`` namespace -- ``service.submitted`` / ``service.admitted``
/ ``service.cache_hit`` / ``service.coalesced`` / ``service.progress``
/ ``service.sealed`` / ``service.failed`` -- around a replay of the
campaign's own events, each stamped with the moment the report sealed.
Streams are a delivery channel, never part of a report, so the
canonical form is unaffected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.perf.stopwatch import Stopwatch

#: Bump when the event schema changes shape incompatibly.
TRACE_SCHEMA_VERSION = 1


@dataclass
class TraceEvent:
    """One structured log record.

    ``(worker, seq)`` is the event's stable identity: ``seq`` is unique
    within one trace, and a fleet stamps each trace's ``worker_id`` onto
    its events, so identities stay unique (and merge order stays
    deterministic) across any number of concurrent processes.
    """

    seq: int
    t_s: float
    event: str
    name: str = ""
    status: str | None = None
    wall_s: float | None = None
    counters: dict[str, float] = field(default_factory=dict)
    detail: str = ""
    #: Id of the process that recorded the event ("" for single-process
    #: runs, which keeps their serialized form unchanged).
    worker: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form; optional fields are omitted when empty."""
        out: dict = {
            "seq": self.seq,
            "t_s": round(self.t_s, 6),
            "event": self.event,
            "name": self.name,
        }
        if self.worker:
            out["worker"] = self.worker
        if self.status is not None:
            out["status"] = self.status
        if self.wall_s is not None:
            out["wall_s"] = round(self.wall_s, 6)
        if self.counters:
            out["counters"] = {k: float(v) for k, v in self.counters.items()}
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(
            seq=int(data.get("seq", 0)),
            t_s=float(data.get("t_s", 0.0)),
            event=str(data["event"]),
            name=str(data.get("name", "")),
            status=data.get("status"),
            wall_s=data.get("wall_s"),
            counters=dict(data.get("counters", {})),
            detail=str(data.get("detail", "")),
            worker=str(data.get("worker", "")),
        )


class CampaignTrace:
    """Append-only event log for one (or several) campaign runs.

    ``worker_id`` names the recording process; every emitted event is
    stamped with it.  Single-process runs leave it "" (the default), so
    their serialized events are unchanged.
    """

    def __init__(self, worker_id: str = "") -> None:
        import time

        self.started_at = time.time()
        self.worker_id = worker_id
        self._watch = Stopwatch()
        self.events: list[TraceEvent] = []
        #: Events handed over by :meth:`drain`, no longer held here.
        self._drained = 0

    # -- recording -----------------------------------------------------------

    def emit(self, event: str, name: str = "", status: str | None = None,
             wall_s: float | None = None,
             counters: dict[str, float] | None = None,
             detail: str = "") -> TraceEvent:
        """Append one event stamped with the trace clock."""
        record = TraceEvent(
            seq=self._drained + len(self.events),
            t_s=self._watch.elapsed(),
            event=event,
            name=name,
            status=status,
            wall_s=wall_s,
            counters=dict(counters or {}),
            detail=detail,
            worker=self.worker_id,
        )
        self.events.append(record)
        return record

    def replay(self, dicts: list[dict]) -> None:
        """Re-emit previously recorded events (checkpoint replay).

        Each event keeps its kind, name, status, counters, detail, and
        original ``wall_s``, but is restamped with this trace's own
        sequence numbers, clock, and worker id -- a resumed run's event
        *stream* matches a cold run's even though its timestamps (and
        recording process) are its own.
        """
        parsed = [TraceEvent.from_dict(data) for data in dicts]
        for e in parsed:
            self.emit(e.event, name=e.name, status=e.status,
                      wall_s=e.wall_s, counters=e.counters, detail=e.detail)

    def drain(self) -> list[TraceEvent]:
        """Hand over the events recorded since the last drain and stop
        holding them.  Sequence numbers run on across drains, so a
        drained trace's events keep the ``(worker, seq)`` identities an
        undrained one would give them."""
        events, self.events = self.events, []
        self._drained += len(events)
        return events

    # -- queries -------------------------------------------------------------

    def of(self, event: str) -> list[TraceEvent]:
        """Every event of one kind, in emission order."""
        return [e for e in self.events if e.event == event]

    def crashes(self) -> list[TraceEvent]:
        """Every crash record: check crashes and errored stages."""
        return [e for e in self.events
                if e.event == "check_crash"
                or (e.event == "stage_end" and e.status == "error")]

    def total_seconds(self) -> float:
        return self.events[-1].t_s if self.events else 0.0

    # -- serialization -------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    def to_jsonl(self) -> str:
        """One JSON object per line (ends with a newline when non-empty)."""
        lines = [json.dumps(e.to_dict(), sort_keys=True) for e in self.events]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "CampaignTrace":
        """Rebuild a trace from its JSON-lines form (CI post-processing)."""
        trace = cls()
        for line in text.splitlines():
            line = line.strip()
            if line:
                trace.events.append(TraceEvent.from_dict(json.loads(line)))
        return trace

    @classmethod
    def from_dicts(cls, dicts: list[dict]) -> "CampaignTrace":
        """Rebuild a trace from ``to_dicts`` output (report round-trip)."""
        trace = cls()
        trace.events = [TraceEvent.from_dict(d) for d in dicts]
        return trace

    @classmethod
    def merge(cls, sources) -> "CampaignTrace":
        """Deterministically merge per-worker logs into one fleet log.

        ``sources`` is an iterable of :class:`CampaignTrace` instances
        and/or lists of events (:class:`TraceEvent` objects or their
        dict forms).  Events keep their original
        ``(worker, seq)`` identity and are ordered by it -- a total,
        input-order-independent order, so the merged log is byte-stable
        no matter how worker results raced in.  The merged trace is a
        read-only view: appending to it would reuse sequence numbers.
        """
        events: list[TraceEvent] = []
        for src in sources:
            if isinstance(src, CampaignTrace):
                events.extend(src.events)
            else:
                events.extend(e if isinstance(e, TraceEvent)
                              else TraceEvent.from_dict(e) for e in src)
        merged = cls()
        merged.events = sorted(events, key=lambda e: (e.worker, e.seq))
        return merged

    def __eq__(self, other) -> bool:
        """Two traces are equal when they recorded the same events.

        The epoch anchors (``started_at``, the monotonic stopwatch) are
        identity-of-run, not content, and are excluded -- this is what
        makes a deserialized trace compare equal to its source.
        """
        if not isinstance(other, CampaignTrace):
            return NotImplemented
        return self.events == other.events
