"""Unit tests for the work-stealing lease queue (pure state, fake clock)."""

from repro.fleet.jobs import Job, JobKind
from repro.fleet.queue import WorkQueue


def job(job_id, design="dp", deps=()):
    return Job(job_id=job_id, design=design, kind=JobKind.BATTERY,
               bundle_ref="x:y", deps=tuple(deps))


def two_worker_queue():
    wq = WorkQueue(lease_s=10.0)
    wq.add_worker("w0")
    wq.add_worker("w1")
    return wq


def test_affinity_is_stable_per_design():
    wq = two_worker_queue()
    for i in range(6):
        wq.submit(job(f"dp:{i}"))
    # All six jobs of one design land on the same deque: one worker
    # drains them in FIFO order...
    homes = [w for w in ("w0", "w1") if wq._ready[w]]
    assert len(homes) == 1
    home, thief = homes[0], ("w1" if homes[0] == "w0" else "w0")
    lease = wq.next_job(home, now=0.0)
    assert lease.job.job_id == "dp:0" and not lease.stolen
    # ...and the idle peer steals from the opposite end.
    stolen = wq.next_job(thief, now=0.0)
    assert stolen.stolen and stolen.job.job_id == "dp:5"
    assert wq.steals == 1


def test_next_job_returns_none_when_empty():
    wq = two_worker_queue()
    assert wq.next_job("w0", now=0.0) is None
    assert wq.next_job("unknown", now=0.0) is None


def test_dependencies_gate_release():
    wq = two_worker_queue()
    wq.submit(job("dp:prepare"))
    assert not wq.submit(job("dp:b1", deps=["dp:prepare"]))
    assert not wq.submit(job("dp:fin", deps=["dp:b1"]))
    assert wq.blocked_count() == 2 and wq.depth() == 1

    lease = wq.next_job("w0", now=0.0) or wq.next_job("w1", now=0.0)
    released = wq.complete(lease.job.job_id)
    assert [j.job_id for j in released] == ["dp:b1"]
    assert wq.blocked_count() == 1 and wq.depth() == 1


def test_lease_expiry_requeues_to_front_with_retry_bump():
    wq = two_worker_queue()
    wq.submit(job("dp:a"))
    wq.submit(job("dp:b"))
    worker = next(w for w in ("w0", "w1") if wq._ready[w])
    lease = wq.next_job(worker, now=0.0)
    assert wq.expired(now=5.0) == []
    assert wq.renew(lease.job.job_id, now=5.0)
    assert wq.expired(now=14.0) == []  # renewed at 5, good until 15
    expired = wq.expired(now=16.0)
    assert [l.job.job_id for l in expired] == ["dp:a"]

    requeued = wq.release("dp:a")
    assert requeued.retries == 1
    # Front of the deque: the interrupted job runs next, not last.
    assert wq.next_job(worker, now=16.0).job.job_id == "dp:a"
    assert wq.requeues == 1 and wq.expirations == 1


def test_complete_is_idempotent_and_removes_requeued_duplicates():
    wq = two_worker_queue()
    wq.submit(job("dp:a"))
    worker = next(w for w in ("w0", "w1") if wq._ready[w])
    wq.next_job(worker, now=0.0)
    wq.release("dp:a")           # job back on a deque
    assert wq.depth() == 1
    assert wq.complete("dp:a") == []   # late result from original worker
    assert wq.depth() == 0             # duplicate swept from the deque
    assert wq.complete("dp:a") == []   # second completion is a no-op
    assert wq.is_done("dp:a")
    assert wq.release("dp:a") is None  # done jobs cannot be requeued


def test_remove_worker_returns_orphans_for_resubmission():
    wq = two_worker_queue()
    for i in range(4):
        wq.submit(job(f"dp:{i}"))
    victim = next(w for w in ("w0", "w1") if wq._ready[w])
    orphans = wq.remove_worker(victim)
    assert len(orphans) == 4
    for orphan in orphans:
        wq.submit(orphan)
    survivor = "w1" if victim == "w0" else "w0"
    assert wq.depth() == 4
    assert wq.next_job(survivor, now=0.0).job.job_id == "dp:0"


def test_cancel_design_drops_queued_and_blocked_jobs():
    wq = two_worker_queue()
    wq.submit(job("dp:a"))
    wq.submit(job("dp:fin", deps=["dp:a"]))
    wq.submit(job("other:a", design="other"))
    dropped = wq.cancel_design("dp")
    assert sorted(j.job_id for j in dropped) == ["dp:a", "dp:fin"]
    assert wq.unfinished() == 1
    # Cancelled ids are refused if something tries to resubmit them.
    assert not wq.submit(job("dp:a"))
    assert wq.unfinished() == 1


def test_fail_drops_leased_job():
    wq = two_worker_queue()
    wq.submit(job("dp:a"))
    worker = next(w for w in ("w0", "w1") if wq._ready[w])
    lease = wq.next_job(worker, now=0.0)
    failed = wq.fail(lease.job.job_id)
    assert failed is lease.job
    assert wq.unfinished() == 0
    assert not wq.submit(job("dp:a"))  # stays cancelled


def test_forget_drops_every_record_of_the_jobs():
    wq = two_worker_queue()
    for job_id in ("dp:a", "dp:b", "dp:c"):
        wq.submit(job(job_id))
    wq.submit(job("dp:fin", deps=["dp:a", "dp:b", "dp:c"]))
    worker = next(w for w in ("w0", "w1") if wq._ready[w])
    wq.complete(wq.next_job(worker, now=0.0).job.job_id)  # dp:a done
    wq.next_job(worker, now=0.0)  # dp:b leased, dp:c still queued
    wq.fail("dp:x")
    wq.forget(["dp:a", "dp:b", "dp:c", "dp:fin", "dp:x"])
    assert not wq.is_done("dp:a")
    assert (wq.depth(), wq.blocked_count(), wq.lease_count()) == (0, 0, 0)
    assert wq.submit(job("dp:x"))  # no longer refused as cancelled
