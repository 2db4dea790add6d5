"""Per-design worker sessions: what a worker keeps between a design's jobs.

The work queue routes every job of one design to the same affinity
worker (:mod:`repro.fleet.queue`).  A :class:`DesignSession` is what that
worker keeps between those jobs, so a design's later jobs continue from
what its earlier ones produced instead of re-deriving it:

* the bundle this worker resolved, and that bundle's stage keys,
  fingerprinted once in this process.  Keys are never taken from
  another process: each side fingerprints the inputs it resolved
  itself (see :mod:`repro.fleet.jobs`);
* one :class:`~repro.perf.DesignCache`, which builds each corner
  annotation of the check context once per design.  It is built over
  the process-wide classification memo: a private memo would make
  recognition miss the templates earlier designs left there and
  re-sweep every CCC;
* the stage-checkpoint and battery-shard payloads of that design that
  this worker wrote (and that landed) or read back through
  :func:`~repro.store.checkpoint.load_checkpoint`.

A session is also the store its design's campaigns run against.  It
answers a read only for a key it already holds; every other read, and
every write, goes to the shared store.  The campaign's resume path
therefore stays the only path: a later job replays, with the same
``checkpoint.hit`` events, the very artifacts a serial
``CbvCampaign.run()`` passes from stage to stage.  ``invalidate`` (a
payload that failed validation or replay) drops the key here as well,
so the next read goes back to the store.

A worker holds sessions for at most :data:`MAX_SESSIONS` designs and
drops a design's session when its finalize job ends.  The dropped
session leaves the map at once but is freed only after the worker has
sent the job's reply, so freeing its artifacts stays off the reply
path.  A job whose worker holds no session -- another worker, a retry
after SIGKILL, a respawned worker -- starts a fresh one and reads the
store as a session-less job would.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.stages import FlowStage
from repro.fleet.jobs import FleetConfig, Job, resolve_bundle
from repro.perf.cache import DesignCache
from repro.store.checkpoint import stage_keys

#: Designs one worker keeps sessions for; the least recently used goes
#: first.  Twice the service's default in-flight cap, and room for a
#: whole bench suite whose prepare jobs all run before any finalize.
MAX_SESSIONS = 8


class DesignSession:
    """One design's state in one worker, across that design's jobs."""

    def __init__(self, store, bundle, config: FleetConfig, ref) -> None:
        self.store = store
        self.bundle = bundle
        self.config = config
        self.ref = ref
        self.keys = stage_keys(bundle, checks=config.checks,
                               timeout_s=config.timeout_s)
        self.cache = DesignCache.over_process_memo()
        self._held: dict[str, tuple] = {}

    @property
    def circuit_key(self) -> str:
        """The circuit-verification stage key (battery shards key on it)."""
        return self.keys[FlowStage.CIRCUIT_VERIFICATION]

    def stage_keys(self, bundle, *, checks: tuple = (),
                   timeout_s: float | None = None) -> dict[FlowStage, str]:
        """A campaign's checkpoint keys: this session's own when the
        campaign runs the session's bundle and battery, fresh ones
        otherwise."""
        if (bundle is self.bundle and checks == self.config.checks
                and timeout_s == self.config.timeout_s):
            return self.keys
        return stage_keys(bundle, checks=checks, timeout_s=timeout_s)

    # -- the store protocol the campaign and the shard readers use ------------

    def get(self, key: str):
        held = self._held.get(key)
        if held is not None:
            return held
        held = self.store.get(key)
        self._held[key] = held
        return held

    def put(self, key: str, payload, meta: dict | None = None):
        landed = self.store.put(key, payload, meta=meta)
        if landed is not None:
            self._held[key] = (payload, dict(meta or {}))
        return landed

    def invalidate(self, key: str, reason: str = "") -> bool:
        self._held.pop(key, None)
        return self.store.invalidate(key, reason)

    @property
    def degraded(self) -> bool:
        return self.store.degraded

    def counters(self) -> dict[str, int]:
        return self.store.counters()


class WorkerSessions:
    """One worker's design sessions, bounded by :data:`MAX_SESSIONS`."""

    def __init__(self) -> None:
        self._sessions: OrderedDict[str, DesignSession] = OrderedDict()
        #: Jobs that found their design's session (see :meth:`open`).
        self.hits = 0
        #: The last closed session, held until :meth:`release`.
        self.retired: DesignSession | None = None

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, design: str) -> bool:
        return design in self._sessions

    def open(self, job: Job, store, config: FleetConfig) -> DesignSession:
        """``job``'s design session, started afresh when this worker
        holds none for the job's design, bundle ref, store and config."""
        session = self._sessions.get(job.design)
        if (session is not None and session.store is store
                and session.config is config
                and session.ref == job.bundle_ref):
            self._sessions.move_to_end(job.design)
            self.hits += 1
            return session
        session = DesignSession(store, resolve_bundle(job.bundle_ref),
                                config, job.bundle_ref)
        self._sessions[job.design] = session
        self._sessions.move_to_end(job.design)
        while len(self._sessions) > MAX_SESSIONS:
            self._sessions.popitem(last=False)
        return session

    def close(self, design: str) -> None:
        """Drop ``design``'s session (its finalize job ended).  It stays
        referenced, as :attr:`retired`, until :meth:`release`."""
        self.retired = self._sessions.pop(design, None)

    def release(self) -> None:
        """Free the retired session; the worker calls this right after
        sending a job's reply."""
        self.retired = None
