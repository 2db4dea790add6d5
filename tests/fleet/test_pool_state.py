"""A long-running pool keeps state only for the names in flight.

A name that finishes or fails leaves the pool with its ``Job``s, their
done and cancelled ids in the ``WorkQueue``, and their leases; every
trace event -- each worker's relayed slice and the scheduler's own
events -- goes to the front door's ``on_events`` hook as it arrives.
The service's pool runs for the life of the process, so what it keeps
per finished design is what the service leaks per request.
"""

from repro.core.trace import TraceEvent
from repro.fleet import FleetConfig, design_flow_hook, prepare_job
from repro.fleet.scheduler import _Pool
from repro.service.suite import variant_ref


def held(pool) -> dict:
    """Everything the pool holds per name or per job."""
    wq = pool.wq
    return {
        "names": len(pool.names),
        "jobs": len(pool.jobs_by_id),
        "job_ids": len(pool._job_ids),
        "done_ids": len(wq._done),
        "cancelled_ids": len(wq._cancelled),
        "leases": wq.lease_count(),
        "blocked": wq.blocked_count(),
        "queued": wq.depth(),
        "scheduler_events": len(pool.ftrace.events),
    }


def holds_events(obj) -> bool:
    """Whether any attribute of ``obj`` is a list of trace events."""
    return any(isinstance(value, list) and value
               and isinstance(value[0], (dict, TraceEvent))
               for value in vars(obj).values())


def test_pool_keeps_no_state_for_finished_designs(tmp_path):
    """Twelve designs and one that fails, one at a time through one
    long-running pool: once each leaves, the pool holds no job, id,
    lease or event of it, and every event went to the hook."""
    config = FleetConfig(store_dir=str(tmp_path / "store"), heartbeat_s=0.1,
                         fleet_timeout_s=300.0)
    todo = [(f"svc_v{i:02d}", variant_ref(i)) for i in range(12)]
    todo.insert(5, ("broken", "repro.no_such_module:nothing"))
    left, finished, failed, events = [], [], [], []

    def next_design(pool):
        # Runs once a name has left the pool.
        left.append(held(pool))
        if not todo:
            pool.request_stop()
            return
        name, ref = todo.pop(0)
        pool.add_design(name)
        pool.submit(prepare_job(name, ref))

    def finish(pool, job, result):
        finished.append(job.design)
        pool.finish(job.design, bool(result.get("ok")))
        next_design(pool)

    def design_failed(pool, name, reason):
        failed.append(name)
        next_design(pool)

    pool = _Pool(workers=1, config=config,
                 on_job_done=design_flow_hook(config, finish=finish),
                 on_design_failed=design_failed,
                 on_events=lambda pool, batch: events.extend(batch))
    name, ref = todo.pop(0)
    pool.add_design(name)
    pool.run([prepare_job(name, ref)])

    assert failed == ["broken"] and len(finished) == 12
    nothing = dict.fromkeys(held(pool), 0)
    # Between designs the scheduler has not yet handed over the events
    # of the tick that finished one; nothing else is held.
    assert [dict(h, scheduler_events=0) for h in left] == [nothing] * 13
    assert held(pool) == nothing
    handles = [*pool.handles.values(), *pool.retired]
    assert handles and not any(holds_events(h) for h in handles)
    assert not holds_events(pool)

    # The hook saw every event exactly once: the scheduler's and the
    # worker's sequence numbers run 0, 1, 2, ... without a gap.
    ours = [e for e in events if isinstance(e, TraceEvent)]
    theirs = [e for e in events if isinstance(e, dict)]
    assert [e.seq for e in ours] == list(range(len(ours)))
    assert [e["seq"] for e in theirs] == list(range(len(theirs)))
    kinds = [e.event for e in ours]
    assert kinds.count("design_added") == 13
    assert kinds.count("design_done") == 12
    assert kinds.count("design_failed") == 1
    assert kinds[-1] == "fleet_end"
    # Six jobs a design (prepare, four battery shards, finalize), and
    # three tries of the broken one's prepare.
    assert sum(e["event"] == "job_end" for e in theirs) == 12 * 6 + 3
