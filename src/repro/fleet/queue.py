"""Work-stealing job queue with leases (scheduler-side, pure state).

The queue is the broker's data structure: no clocks, no processes, no
I/O -- the scheduler feeds it monotonic timestamps and worker ids, which
keeps every scheduling decision unit-testable.

Topology: one FIFO deque per worker plus a blocked set.  A submitted
job lands on the deque of its *affinity* worker (a stable hash of the
design name), so one design's prepare / shards / finalize gravitate to
the same process.  That process keeps the design's session
(:mod:`repro.fleet.session`) between them, so the later jobs continue
from the bundle, stage keys, check context and checkpoint payloads the
earlier ones left there; a stolen or re-homed job starts its own
session from the shared store.  A worker that drains its
own deque **steals** from the back of the longest peer deque -- the
opposite end from the one the owner drains, the classic work-stealing
discipline that minimizes contention and keeps 4 workers busy when one
design dominates.

Every handed-out job carries a **lease** with a deadline; heartbeats
renew it.  A lease that expires (hung or dead worker) is released back
to the front of its affinity deque with the retry count bumped --
requeue-on-worker-death is this same path driven by the supervisor.
Completion is idempotent and first-wins: if an expired job was requeued
and the original worker's result arrives late, the straggler's
completion simply removes the duplicate from the deques.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass

from repro.fleet.jobs import Job


@dataclass
class Lease:
    """One job handed to one worker until ``deadline``."""

    job: Job
    worker: str
    deadline: float
    stolen: bool = False


class WorkQueue:
    def __init__(self, lease_s: float = 30.0) -> None:
        self.lease_s = lease_s
        self._workers: list[str] = []
        self._ready: dict[str, deque[Job]] = {}
        self._blocked: dict[str, Job] = {}
        self._leases: dict[str, Lease] = {}
        self._done: set[str] = set()
        self._cancelled: set[str] = set()
        self.steals = 0
        self.requeues = 0
        self.expirations = 0

    # -- workers -------------------------------------------------------------

    def add_worker(self, worker: str) -> None:
        if worker in self._ready:
            raise ValueError(f"worker {worker!r} already registered")
        self._workers.append(worker)
        self._ready[worker] = deque()

    def remove_worker(self, worker: str) -> list[Job]:
        """Deregister a (dead) worker; its queued jobs are returned so
        the scheduler can resubmit them under the surviving topology."""
        orphans = list(self._ready.pop(worker, ()))
        if worker in self._workers:
            self._workers.remove(worker)
        return orphans

    def _affinity(self, design: str) -> str:
        if not self._workers:
            raise RuntimeError("no workers registered")
        index = zlib.crc32(design.encode("utf-8")) % len(self._workers)
        return self._workers[index]

    # -- submission and dependencies -----------------------------------------

    def _deps_done(self, job: Job) -> bool:
        return all(dep in self._done for dep in job.deps)

    def submit(self, job: Job) -> bool:
        """Queue ``job``; returns True when it is immediately runnable
        (dependencies satisfied), False when parked as blocked."""
        if job.job_id in self._cancelled:
            return False
        if self._deps_done(job):
            self._ready[self._affinity(job.design)].append(job)
            return True
        self._blocked[job.job_id] = job
        return False

    # -- leasing -------------------------------------------------------------

    def next_job(self, worker: str, now: float) -> Lease | None:
        """Pop ``worker``'s own deque, stealing from the longest peer
        deque when it is empty.  Returns the new lease, or None."""
        own = self._ready.get(worker)
        if own is None:
            return None
        job = None
        stolen = False
        if own:
            job = own.popleft()
        else:
            victim = max(
                (w for w in self._workers if w != worker and self._ready[w]),
                key=lambda w: len(self._ready[w]), default=None)
            if victim is not None:
                job = self._ready[victim].pop()
                stolen = True
                self.steals += 1
        if job is None:
            return None
        lease = Lease(job=job, worker=worker,
                      deadline=now + self.lease_s, stolen=stolen)
        self._leases[job.job_id] = lease
        return lease

    def renew(self, job_id: str, now: float) -> bool:
        lease = self._leases.get(job_id)
        if lease is None:
            return False
        lease.deadline = now + self.lease_s
        return True

    def expired(self, now: float) -> list[Lease]:
        return [l for l in self._leases.values() if l.deadline < now]

    def release(self, job_id: str) -> Job | None:
        """Break a lease and requeue its job (front of the affinity
        deque -- interrupted work runs next, not last).  Returns the
        requeued job, or None when the job is unknown or already done."""
        lease = self._leases.pop(job_id, None)
        if lease is None or job_id in self._done:
            return None
        self.expirations += 1
        job = lease.job
        job.retries += 1
        self.requeues += 1
        self._ready[self._affinity(job.design)].appendleft(job)
        return job

    # -- completion ----------------------------------------------------------

    def complete(self, job_id: str) -> list[Job]:
        """Record success (idempotent; first completion wins) and return
        the jobs it unblocked, already moved onto ready deques."""
        if job_id in self._done:
            return []
        self._done.add(job_id)
        self._leases.pop(job_id, None)
        for dq in self._ready.values():  # drop requeued duplicates
            for dup in [j for j in dq if j.job_id == job_id]:
                dq.remove(dup)
        released = [j for j in self._blocked.values() if self._deps_done(j)]
        for job in released:
            del self._blocked[job.job_id]
            self._ready[self._affinity(job.design)].append(job)
        return released

    def fail(self, job_id: str) -> Job | None:
        """Drop a job permanently (retry budget exhausted)."""
        lease = self._leases.pop(job_id, None)
        self._cancelled.add(job_id)
        return lease.job if lease else None

    def poison(self, job_id: str) -> list[Job]:
        """Quarantine a job that keeps destroying its workers.

        The job is marked done, so its dependents release and run; the
        scheduler has already recorded the poisoning on the dependent
        that degrades its output (see ``_Pool._poison_shard``).
        Returns the released dependents, like :meth:`complete`.
        """
        return self.complete(job_id)

    def cancel_design(self, design: str) -> list[Job]:
        """Remove every queued/blocked job of a failed design; in-flight
        leases are left to finish and their completions are ignored by
        the scheduler."""
        dropped = []
        for dq in self._ready.values():
            victims = [j for j in dq if j.design == design]
            for job in victims:
                dq.remove(job)
            dropped.extend(victims)
        for job_id, job in list(self._blocked.items()):
            if job.design == design:
                del self._blocked[job_id]
                dropped.append(job)
        for job in dropped:
            self._cancelled.add(job.job_id)
        return dropped

    def is_done(self, job_id: str) -> bool:
        return job_id in self._done

    # -- introspection -------------------------------------------------------

    def depth(self) -> int:
        """Runnable jobs queued and unleased."""
        return sum(len(dq) for dq in self._ready.values())

    def blocked_count(self) -> int:
        return len(self._blocked)

    def lease_count(self) -> int:
        return len(self._leases)

    def unfinished(self) -> int:
        return self.depth() + self.blocked_count() + self.lease_count()
