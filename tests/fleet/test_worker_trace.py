"""A fleet worker keeps no trace event it has already sent.

Each reply carries the events its worker recorded since the previous
one (``CampaignTrace.drain``), and the worker's trace then drops them,
so a long-lived worker holds one job's events at most.  Sequence
numbers run on across drains: the fleet's merged log keeps every
``(worker, seq)`` identity it had when workers kept all their events.
The scheduler drains its own trace the same way, handing every event
to the batch front door, which merges them all.
"""

import queue

from repro.core.trace import CampaignTrace
from repro.fleet import (
    FleetConfig,
    finalize_job,
    prepare_job,
    run_fleet,
    run_scenario_fleet,
)
from repro.fleet import worker as worker_mod
from repro.fleet.session import WorkerSessions
from repro.fleet.worker import worker_main
from repro.scenarios import FuzzSpec
from repro.service.suite import variant_ref


def test_worker_trace_holds_no_sent_event(tmp_path, monkeypatch):
    """Twelve designs through one in-process worker: after every reply
    its trace is empty, and the events it sent number 0, 1, 2, ..."""
    traces = []

    class Recorded(CampaignTrace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            traces.append(self)

    held = []
    release = WorkerSessions.release

    def spy(self):  # runs once a job's reply has been sent
        held.append(len(traces[0].events))
        release(self)

    monkeypatch.setattr(worker_mod, "CampaignTrace", Recorded)
    monkeypatch.setattr(WorkerSessions, "release", spy)
    inbox, sent = queue.Queue(), []
    for i in range(12):
        design, ref = f"svc_v{i:02d}", variant_ref(i)
        inbox.put(("job", prepare_job(design, ref)))
        inbox.put(("job", finalize_job(design, ref, [])))
    inbox.put(("stop",))

    class Outbox:
        send = staticmethod(sent.append)

    worker_main("w0", inbox, Outbox(),
                FleetConfig(store_dir=str(tmp_path / "store")))
    assert held == [0] * 24
    assert traces[0].events == []
    seqs = [event["seq"] for message in sent for event in message[4]]
    assert len(seqs) > 24 * 2
    assert seqs == list(range(len(seqs)))


def _keep_every_event(trace):
    """The drain of workers that kept every event: the events since the
    previous drain, all still held, numbered by position."""
    start = getattr(trace, "_kept_cursor", 0)
    trace._kept_cursor = len(trace.events)
    return trace.events[start:]


def _config(tmp_path, name):
    return FleetConfig(store_dir=str(tmp_path / name), heartbeat_s=0.1,
                       fleet_timeout_s=120.0)


def _event_stream(tmp_path, name):
    suite = {f"svc_v{i:02d}": variant_ref(i) for i in range(3)}
    result = run_fleet(suite, workers=1, config=_config(tmp_path, name))
    assert result.failed == {} and len(result.reports) == 3
    return [(e.worker, e.seq, e.event, e.name, e.status)
            for e in result.trace.events]


def _scenario_stream(tmp_path, name):
    spec = FuzzSpec(name="adder-fuzz",
                    target_ref="repro.scenarios.targets:adder4_shadow",
                    campaign_seed=2026, seeds=12, cycles=6)
    result = run_scenario_fleet({spec.name: spec}, workers=1, shards=4,
                                config=_config(tmp_path, name))
    assert result.failed == {} and list(result.reports) == [spec.name]
    return [(e.worker, e.seq, e.event, e.name, e.status)
            for e in result.trace.events]


def _assert_every_event_once(stream):
    """Each recorder's events -- the scheduler's (``fleet``) and every
    worker's -- are all there, once each: seqs 0, 1, 2, ..."""
    workers = {worker for worker, *_ in stream}
    assert "fleet" in workers and len(workers) > 1
    for worker in workers:
        seqs = [seq for w, seq, *_ in stream if w == worker]
        assert seqs == list(range(len(seqs))), worker
    assert [e for w, _, e, *_ in stream if w == "fleet"][-1] == "fleet_end"


def test_fleet_trace_matches_workers_that_keep_every_event(tmp_path,
                                                           monkeypatch):
    """``run_fleet``'s merged trace, event for event, equals the one
    it merged when workers kept every event they had sent."""
    dropped = _event_stream(tmp_path, "dropped")
    monkeypatch.setattr(CampaignTrace, "drain", _keep_every_event)
    kept = _event_stream(tmp_path, "kept")
    assert dropped == kept
    _assert_every_event_once(dropped)


def test_scenario_fleet_trace_matches_workers_that_keep_every_event(
        tmp_path, monkeypatch):
    """The same for ``run_scenario_fleet``."""
    dropped = _scenario_stream(tmp_path, "dropped")
    monkeypatch.setattr(CampaignTrace, "drain", _keep_every_event)
    kept = _scenario_stream(tmp_path, "kept")
    assert dropped == kept
    _assert_every_event_once(dropped)
