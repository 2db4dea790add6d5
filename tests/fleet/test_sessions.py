"""Per-design worker sessions: the six jobs of a design, run in process.

A worker keeps one :class:`~repro.fleet.session.DesignSession` per
design between that design's jobs.  These tests run prepare, the
battery shards and finalize with :func:`execute_job` on one store in
three ways -- one worker keeping its session (a), the session dropped
before every job, which is the session-less path (b), and the session
dropped after the second shard, as after a respawn (c) -- and pin that
the three are the same computation: the same shard blobs, and a
finalize report canonically equal to a serial ``CbvCampaign.run()``.
The budget test then pins what (a) saves, and the rest pin the
session's edges: the shared classification memo, invalidation, store
faults on a session-less worker, the bound, the finalize drop, and
that the worker replies before it frees the dropped session.
"""

import json
import queue
from collections import Counter

import pytest
from fleet_harness import dp_bundle

from repro.chaos import ChaosStore, FaultPlan
from repro.core.campaign import CbvCampaign, DesignBundle
from repro.core.report import (
    canonical_counters,
    report_from_dict,
    report_to_json,
)
from repro.core.stages import FlowStage
from repro.core.trace import CampaignTrace
from repro.designs.latch_zoo import jamb_latch
from repro.fleet import (
    FleetConfig,
    battery_jobs,
    execute_job,
    finalize_job,
    prepare_job,
    resolve_bundle,
    shard_store_key,
)
from repro.fleet.session import MAX_SESSIONS, WorkerSessions
from repro.fleet.worker import worker_main
from repro.process.corners import Corner
from repro.process.technology import strongarm_technology
from repro.service.suite import variant_ref
from repro.store import ArtifactStore, StoreMiss, stage_keys
from repro.timing.clocking import TwoPhaseClock


def jamb_bundle() -> DesignBundle:
    """The latch zoo's jamb latch in layout mode, with a switch-level leg."""
    return DesignBundle(
        name="jamb",
        cell=jamb_latch(),
        technology=strongarm_technology(),
        clock=TwoPhaseClock(period_s=6.25e-9, non_overlap_s=0.1e-9),
        functional_vectors=({"d_b": 0, "wr": 1}, {"wr": 0}),
        functional_probes=("q", "q_b"),
    )


DESIGNS = {
    "dp": dp_bundle,
    "svc_v05": variant_ref(5),
    "alpha_slice": "repro.fleet.suite:alpha_slice",
    "jamb": jamb_bundle,
}


class CountingStore(ArtifactStore):
    """An artifact store that counts reads and writes per key.

    Keys in ``drop_puts`` are never written, as when a concurrent
    writer's blob made the write a duplicate.
    """

    def __init__(self, root) -> None:
        super().__init__(root)
        self.reads: Counter = Counter()
        self.puts: Counter = Counter()
        self.drop_puts: set[str] = set()

    def get(self, key):
        self.reads[key] += 1
        return super().get(key)

    def put(self, key, payload, meta=None):
        self.puts[key] += 1
        if key in self.drop_puts:
            return None
        return super().put(key, payload, meta=meta)


def run_design(design, ref, store, config, drop_before=()):
    """Run ``design``'s jobs in order on one worker's sessions.

    The session is dropped before every job whose index (prepare is 0,
    then the shards, then finalize) is in ``drop_before``.  Returns the
    finalize result, the shard specs, and the sessions.
    """
    sessions = WorkerSessions()
    wt = CampaignTrace(worker_id="w0")
    index = 0

    def run(job):
        nonlocal index
        if index in drop_before:
            sessions.close(design)
        index += 1
        return execute_job(job, store, config, wt, sessions)

    prep = run(prepare_job(design, ref))
    shards = ([] if prep["degraded"]
              else battery_jobs(design, ref, prep["cccs"], config))
    for job in shards:
        run(job)
    result = run(finalize_job(design, ref, shards))
    return result, [job.shard for job in shards], sessions


def shard_text(store, circuit_key, shard) -> str:
    """A shard blob's content with its wall clocks stripped."""
    payload, _meta = store.get(shard_store_key(circuit_key, shard))
    battery = dict(payload["battery"],
                   per_check_seconds=list(payload["battery"]
                                          ["per_check_seconds"]))
    events = [{k: (canonical_counters(v) if k == "counters" else v)
               for k, v in e.items() if k not in ("t_s", "wall_s")}
              for e in payload["events"]]
    return json.dumps({"battery": battery, "events": events}, sort_keys=True)


def canonical(report_dict) -> str:
    return report_to_json(report_from_dict(report_dict), canonical=True)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_session_modes_are_one_computation(tmp_path, design):
    ref = DESIGNS[design]
    config = FleetConfig()
    bundle = resolve_bundle(ref)
    circuit_key = stage_keys(bundle, checks=config.checks,
                             timeout_s=config.timeout_s)[
                                 FlowStage.CIRCUIT_VERIFICATION]
    serial = report_to_json(CbvCampaign(bundle).run(), canonical=True)

    runs = {}
    for mode, drop_before in (("a", ()), ("b", range(99)), ("c", (3,))):
        store = ArtifactStore(tmp_path / mode)
        result, shards, sessions = run_design(design, ref, store, config,
                                              drop_before)
        assert canonical(result["report"]) == serial, mode
        assert design not in sessions  # finalize dropped it
        runs[mode] = [shard_text(store, circuit_key, s) for s in shards]
    assert runs["a"] == runs["b"] == runs["c"]
    assert runs["a"], "expected at least one battery shard"


def test_session_budget(tmp_path, monkeypatch):
    import repro.perf.cache as cache_mod
    import repro.store.checkpoint as checkpoint_mod

    fingerprints = Counter()
    annotations = Counter()
    real_fp = checkpoint_mod.design_fingerprint
    real_annotate = cache_mod.annotate

    def counting_fp(bundle):
        fingerprints[bundle.name] += 1
        return real_fp(bundle)

    def counting_annotate(flat, parasitics, technology, corner):
        annotations[corner] += 1
        return real_annotate(flat, parasitics, technology, corner)

    monkeypatch.setattr(checkpoint_mod, "design_fingerprint", counting_fp)
    # Every check context annotates through a DesignCache.
    monkeypatch.setattr(cache_mod, "annotate", counting_annotate)

    config = FleetConfig()
    ref = "repro.fleet.suite:alpha_slice"
    kept = CountingStore(tmp_path / "a")
    _result, shards, _ = run_design("alpha_slice", ref, kept, config)
    assert len(shards) > 1
    assert fingerprints == {"alpha_slice": 1}
    assert dict(annotations) == {Corner.TYPICAL: 1, Corner.FAST: 1,
                                 Corner.SLOW: 1}

    keys = stage_keys(resolve_bundle(ref), checks=config.checks,
                      timeout_s=config.timeout_s)
    assert max(kept.reads[k] for k in keys.values()) <= 1
    # The shard blobs finalize merges are the ones this worker wrote.
    for shard in shards:
        assert kept.reads[shard_store_key(keys[
            FlowStage.CIRCUIT_VERIFICATION], shard)] == 0

    dropped = CountingStore(tmp_path / "b")
    run_design("alpha_slice", ref, dropped, config, drop_before=range(99))
    assert sum(kept.puts.values()) == sum(dropped.puts.values())
    assert sum(kept.reads.values()) < sum(dropped.reads.values())


def test_session_recognition_reuses_the_process_memo(tmp_path):
    """A session's cache shares the process-wide classification memo:
    once one variant has been recognized in this process, the next
    one's recognition classifies from templates and sweeps nothing."""
    config = FleetConfig()
    store = ArtifactStore(tmp_path / "store")
    for i in (11, 12):
        wt = CampaignTrace(worker_id="w0")
        execute_job(prepare_job(f"svc_v{i}", variant_ref(i)), store, config,
                    wt, WorkerSessions())
    recognition = [e for e in wt.of("stage_end") if e.name == "recognition"]
    assert recognition[0].counters["target_sweeps"] == 0


def test_invalidate_drops_the_key_so_the_next_job_reads_the_store(tmp_path):
    config = FleetConfig()
    design, ref = "svc_v07", variant_ref(7)
    store = CountingStore(tmp_path / "store")
    sessions = WorkerSessions()
    wt = CampaignTrace(worker_id="w0")
    prep = execute_job(prepare_job(design, ref), store, config, wt, sessions)
    first, second = battery_jobs(design, ref, prep["cccs"], config)[:2]

    session = sessions.open(first, store, config)
    key = session.keys[FlowStage.EXTRACTION]
    payload, _meta = session.get(key)  # held since prepare wrote it
    assert store.reads[key] == 1  # prepare's miss, before the write
    # The held payload turns bad: the campaign's validation rejects it,
    # invalidates the key and re-runs extraction, and this time the
    # write does not land (as when a concurrent writer's blob made it a
    # duplicate), so nothing is held for the key any more.
    payload["result"] = None
    store.drop_puts.add(key)
    execute_job(first, store, config, wt, sessions)
    assert [e.name for e in wt.of("checkpoint.corrupt")] == ["extraction"]
    assert store.reads[key] == 1

    # The next job goes back to the store, which no longer has the blob.
    execute_job(second, store, config, wt, sessions)
    assert store.reads[key] == 2
    with pytest.raises(StoreMiss):
        session.get(key)


def test_a_read_fault_without_the_session_still_quarantines_and_reruns(
        tmp_path):
    """A respawned worker holds no session, so it reads the design's
    checkpoints from the store; a chaos fault on those reads still
    quarantines each blob and re-runs the stage, and the worker that
    kept the session still finalizes the serial report."""
    config = FleetConfig()
    design, ref = "alpha_slice", "repro.fleet.suite:alpha_slice"
    store = ArtifactStore(tmp_path / "store")
    sessions = WorkerSessions()
    wt = CampaignTrace(worker_id="w0")
    prep = execute_job(prepare_job(design, ref), store, config, wt, sessions)
    shards = battery_jobs(design, ref, prep["cccs"], config)
    for job in shards:
        execute_job(job, store, config, wt, sessions)

    plan = FaultPlan.make(5, rates={"store.get": 1.0},
                          kinds={"store.get": ("bitflip",)}, max_per_hook=99)
    chaos = ChaosStore(tmp_path / "store", plan)
    respawned = CampaignTrace(worker_id="w1")
    execute_job(shards[-1], chaos, config, respawned, WorkerSessions())
    assert [e.name for e in respawned.of("checkpoint.corrupt")] == [
        "schematic", "recognition", "layout", "extraction"]
    assert chaos.counters()["store_corrupt"] == 4
    keys = stage_keys(resolve_bundle(ref), checks=config.checks,
                      timeout_s=config.timeout_s)
    assert all(store.has(keys[stage]) for stage in (
        FlowStage.SCHEMATIC, FlowStage.RECOGNITION, FlowStage.LAYOUT,
        FlowStage.EXTRACTION))  # re-run and written again

    result = execute_job(finalize_job(design, ref, shards), store, config,
                         wt, sessions)
    serial = CbvCampaign(resolve_bundle(ref)).run()
    assert canonical(result["report"]) == report_to_json(serial,
                                                         canonical=True)


def test_sessions_are_bounded_and_dropped_by_finalize(tmp_path,
                                                      monkeypatch):
    config = FleetConfig()
    store = ArtifactStore(tmp_path / "store")
    sessions = WorkerSessions()
    designs = [f"svc_v{i:02d}" for i in range(MAX_SESSIONS + 3)]
    for i, design in enumerate(designs):
        sessions.open(prepare_job(design, variant_ref(i)), store, config)
        assert len(sessions) <= MAX_SESSIONS
    assert len(sessions) == MAX_SESSIONS
    assert designs[0] not in sessions and designs[-1] in sessions

    # A finalize that errors drops its session too.
    design, ref = designs[-1], variant_ref(len(designs) - 1)
    wt = CampaignTrace(worker_id="w0")
    execute_job(prepare_job(design, ref), store, config, wt, sessions)

    def broken_export(report):
        raise RuntimeError("report export failed")

    monkeypatch.setattr("repro.fleet.worker.report_to_dict", broken_export)
    with pytest.raises(RuntimeError, match="report export failed"):
        execute_job(finalize_job(design, ref, []), store, config, wt,
                    sessions)
    assert design not in sessions


def test_worker_replies_before_freeing_a_finalized_session(tmp_path,
                                                           monkeypatch):
    """``worker_main`` frees a finalized design's session only once the
    finalize job's ``done`` message has been sent."""
    config = FleetConfig(store_dir=str(tmp_path / "store"))
    design, ref = "svc_v00", variant_ref(0)
    inbox, sent = queue.Queue(), []
    for job in (prepare_job(design, ref), finalize_job(design, ref, [])):
        inbox.put(("job", job))
    inbox.put(("stop",))
    freed = []
    real = WorkerSessions.release

    class Outbox:
        send = staticmethod(sent.append)

    def spy(self):
        if self.retired is not None:
            freed.append([(m[0], m[2]) for m in sent])
        real(self)

    monkeypatch.setattr(WorkerSessions, "release", spy)
    worker_main("w0", inbox, Outbox(), config)
    assert len(freed) == 1
    assert ("done", f"{design}:finalize") in freed[0]
