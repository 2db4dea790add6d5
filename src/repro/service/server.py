"""The verification service: an asyncio front end over the fleet pool.

One process, three layers of concurrency, one owner per piece of state:

* the **asyncio event loop** owns every service object -- campaign
  records, the tenant scheduler, the verdict index counters.  Protocol
  handlers and pool notifications all mutate state here, so none of it
  needs a lock;
* the **pool thread** runs :class:`repro.fleet.scheduler._Pool`,
  which gains a name per launched campaign and stops only on shutdown.
  The loop reaches it only through the pool's thread-safe
  ``call_soon`` injection queue; the pool reaches back only through
  ``loop.call_soon_threadsafe``.  Blocking work the loop needs
  (fingerprinting a bundle, store reads) runs in the default executor;
* the **worker processes** under the pool are unchanged -- the service
  is a new front door over the same engine ``run_fleet`` drives.

A submitted design flows: fingerprint -> in-flight coalesce check ->
verdict-cache probe -> tenant admission (fair-share queue, or
backpressure) -> DRR grant -> prepare/battery/finalize jobs on the pool
-> sealed report + verdict-cache write.  Every transition is narrated
on the campaign's own stream trace (worker id ``service``), which is
what the ``events`` op serves and what ``since`` cursors resume.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
from dataclasses import dataclass, replace

from repro.core.report import report_from_dict, report_to_json
from repro.core.trace import CampaignTrace
from repro.fleet.jobs import FleetConfig, JobKind, prepare_job, resolve_bundle
from repro.fleet.scheduler import _Pool, design_flow_hook
from repro.perf.metrics import prometheus_text
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    MAX_LINE,
    PROTOCOL_VERSION,
    CampaignState,
    decode,
    encode,
    error,
)
from repro.service.tenants import Backpressure, TenantScheduler
from repro.store.artifact import ArtifactStore
from repro.store.verdicts import VerdictIndex, verdict_key


@dataclass
class ServiceConfig:
    """Knobs for one service process."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick; the bound port is on ``VerificationService
    #: .port`` after ``serve()``.
    port: int = 0
    #: Fleet worker processes under the pool.
    workers: int = 2
    #: Global cap on campaigns concurrently on the pool; the DRR drain
    #: stops granting at this bound.
    max_inflight: int = 4
    #: Defaults for tenants that never called ``configure_tenant``.
    default_weight: float = 1.0
    default_tenant_inflight: int = 4
    default_tenant_queue: int = 64
    #: Pool/worker knobs.  The service runs on a copy with
    #: ``fleet_timeout_s`` forced to ``None`` (that bound is a per-run
    #: safety net, meaningless for a pool that intentionally runs
    #: forever) and, when ``store_dir`` is unset, a fresh temporary
    #: store.
    fleet: FleetConfig | None = None


class CampaignRecord:
    """One submission's service-side state (event-loop-owned)."""

    def __init__(self, cid: str, tenant: str, name: str,
                 bundle_ref, key: str) -> None:
        self.id = cid
        self.tenant = tenant
        self.name = name
        self.bundle_ref = bundle_ref
        self.key = key
        self.state = CampaignState.QUEUED
        self.report_dict: dict | None = None
        self.reason = ""
        self.cached = False
        #: The per-campaign stream trace: ``service.*`` transitions
        #: around a replay of the campaign's own events.  Its ``seq``
        #: is the client's resume cursor.
        self.stream = CampaignTrace(worker_id="service")
        self._update = asyncio.Event()

    def update_event(self) -> asyncio.Event:
        """The event the *next* :meth:`touch` will set.

        Grab it **before** inspecting the stream/state snapshot: a
        touch replaces the event and sets the old one, so a waiter
        holding the pre-snapshot event can never sleep through an
        update that landed between its snapshot and its ``wait()``.
        """
        return self._update

    def touch(self) -> None:
        prev, self._update = self._update, asyncio.Event()
        prev.set()


class VerificationService:
    """The service core: campaign lifecycle + protocol handlers."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        fleet = self.config.fleet or FleetConfig()
        fleet = replace(fleet, fleet_timeout_s=None, store_dir=(
            fleet.store_dir
            or tempfile.mkdtemp(prefix="repro-service-store-")))
        self.fleet_config = fleet
        self.store = ArtifactStore(fleet.store_dir)
        self.verdicts = VerdictIndex(self.store)
        self.tenants = TenantScheduler(
            default_weight=self.config.default_weight,
            default_max_inflight=self.config.default_tenant_inflight,
            default_max_queued=self.config.default_tenant_queue)
        self.metrics = ServiceMetrics()
        self.campaigns: dict[str, CampaignRecord] = {}
        #: verdict key -> live campaign id; the in-flight coalescing
        #: map.  An entry is removed only after the sealed verdict has
        #: landed in (or failed to reach) the cache, so a duplicate
        #: arriving in that window finds the sealed record here and is
        #: answered from its report instead of missing both the cache
        #: and the map.
        self._by_key: dict[str, str] = {}
        self._inflight = 0
        self._seq = 0
        self._stopping = False
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._pool: _Pool | None = None
        self._pool_thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._closed: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the pool thread (idempotent; ``serve`` calls it)."""
        if self._pool is not None:
            return
        self.loop = asyncio.get_running_loop()
        self._closed = asyncio.Event()
        self._pool = _Pool(
            workers=self.config.workers, config=self.fleet_config,
            on_job_done=self._pool_job_done,
            on_design_failed=self._pool_design_failed)
        self._flow = design_flow_hook(self.fleet_config,
                                      finish=self._pool_finish)
        self._pool_thread = threading.Thread(
            target=self._pool.run, args=([],), name="service-pool",
            daemon=True)
        self._pool_thread.start()

    async def serve(self) -> asyncio.AbstractServer:
        """Start the pool and bind the protocol listener."""
        await self.start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port,
            limit=MAX_LINE)
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def stop(self) -> None:
        """Close the listener and wind the pool down (abort running)."""
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pool is not None and self._pool_thread is not None:
            self._pool.call_soon(lambda pool: pool.request_stop(abort=True))
            if self._pool_thread.is_alive():
                await self.loop.run_in_executor(
                    None, self._pool_thread.join, 30.0)
        # Wake every stream/report waiter so connections drain.
        for record in self.campaigns.values():
            if not record.state.terminal:
                self._failed(record.id, "service stopped")
        if self._closed is not None:
            self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    # -- pool-thread callbacks (bounce everything to the loop) ---------------

    def _pool_job_done(self, pool, job, result) -> None:
        if job.kind is not JobKind.FINALIZE:
            self.loop.call_soon_threadsafe(
                self._progress, job.design, job.job_id, job.kind.value)
        self._flow(pool, job, result)

    def _pool_finish(self, pool, job, result) -> None:
        # The pool only needs to know the design finished; the report
        # dict crosses to the loop, which owns it from here.
        pool.finish(job.design, True)
        pool.ftrace.emit(
            "design_done", name=job.design,
            status="ok" if result.get("ok") else "needs-triage")
        self.loop.call_soon_threadsafe(
            self._sealed, job.design, result["report"])

    def _pool_design_failed(self, pool, design, reason) -> None:
        self.loop.call_soon_threadsafe(self._failed, design, reason)

    # -- campaign state machine (event loop only) ----------------------------

    def _progress(self, design: str, job_id: str, kind: str) -> None:
        record = self.campaigns.get(design)
        if record is None or record.state.terminal:
            return
        record.stream.emit("service.progress", name=job_id, status=kind)
        record.touch()

    def _sealed(self, design: str, report_dict: dict) -> None:
        record = self.campaigns.get(design)
        if record is None or record.state.terminal:
            return
        record.report_dict = report_dict
        record.state = CampaignState.SEALED
        self.metrics.sealed += 1
        self._inflight -= 1
        self.tenants.release(record.tenant)
        record.stream.replay(report_dict.get("trace") or [])
        record.stream.emit(
            "service.sealed", name=record.name,
            status="ok" if report_dict.get("ok") else "needs-triage")
        record.touch()
        self.loop.create_task(self._seal_verdict(record))
        self._pump()

    async def _seal_verdict(self, record: CampaignRecord) -> None:
        """Write the verdict cache, then retire the coalescing entry."""
        try:
            await self.loop.run_in_executor(
                None, self.verdicts.seal, record.key, record.report_dict,
                {"campaign": record.id, "tenant": record.tenant})
        finally:
            if self._by_key.get(record.key) == record.id:
                del self._by_key[record.key]

    def _failed(self, design: str, reason: str) -> None:
        record = self.campaigns.get(design)
        if record is None or record.state.terminal:
            return
        was_running = record.state is CampaignState.RUNNING
        record.state = CampaignState.FAILED
        record.reason = reason
        self.metrics.failed += 1
        if was_running:
            self._inflight -= 1
            self.tenants.release(record.tenant)
        record.stream.emit("service.failed", name=record.name, detail=reason)
        record.touch()
        if self._by_key.get(record.key) == record.id:
            del self._by_key[record.key]
        self._pump()

    def _pump(self) -> None:
        """Drain fair-share grants into the pool up to the global cap."""
        while self._inflight < self.config.max_inflight:
            grant = self.tenants.next()
            if grant is None:
                return
            _tenant, record = grant
            self._launch(record)

    def _launch(self, record: CampaignRecord) -> None:
        record.state = CampaignState.RUNNING
        self._inflight += 1
        self.metrics.launched += 1
        # launch_index is the service-wide grant ordinal -- the
        # observable the fair-share benchmark reconstructs DRR grant
        # order from.
        record.stream.emit("service.progress", name=record.id,
                           status="launched",
                           counters={"launch_index":
                                     float(self.metrics.launched)})
        record.touch()
        if self._pool_thread is None or not self._pool_thread.is_alive():
            self._failed(record.id, "fleet pool is not running")
            return
        rid, ref = record.id, record.bundle_ref

        def start(pool) -> None:
            pool.add_design(rid)
            pool.submit(prepare_job(rid, ref))

        self._pool.call_soon(start)

    def _cache_hit(self, record: CampaignRecord, report_dict: dict) -> None:
        record.report_dict = report_dict
        record.cached = True
        record.state = CampaignState.SEALED
        self.metrics.cache_hits += 1
        self.metrics.sealed += 1
        record.stream.emit("service.cache_hit", name=record.name)
        record.stream.replay(report_dict.get("trace") or [])
        record.stream.emit(
            "service.sealed", name=record.name,
            status="ok" if report_dict.get("ok") else "needs-triage")
        record.touch()
        if self._by_key.get(record.key) == record.id:
            del self._by_key[record.key]

    # -- submission ----------------------------------------------------------

    def _key_for(self, bundle_ref) -> str:
        """Blocking: resolve + fingerprint (runs in the executor)."""
        bundle = resolve_bundle(bundle_ref)
        return verdict_key(bundle, checks=tuple(self.fleet_config.checks),
                           timeout_s=self.fleet_config.timeout_s)

    async def submit(self, bundle_ref, tenant: str = "default",
                     name: str = "") -> dict:
        """The submit op; returns the protocol response body."""
        self.metrics.submissions += 1
        if self._stopping:
            return error("shutting_down", "service is stopping")
        try:
            key = await self.loop.run_in_executor(
                None, self._key_for, bundle_ref)
        except Exception as exc:  # noqa: BLE001 -- client-supplied ref
            return error("bad_request",
                         f"cannot resolve bundle ref: {exc}")
        # From here to the cache probe there is no await, so the
        # coalesce check and the reservation are atomic on the loop.
        existing = self._by_key.get(key)
        sealed = None
        if existing is not None:
            record = self.campaigns[existing]
            if record.state is not CampaignState.SEALED:
                self.metrics.coalesced += 1
                record.stream.emit("service.coalesced", name=tenant)
                record.touch()
                return {"ok": True, "v": PROTOCOL_VERSION,
                        "campaign": record.id, "state": record.state.value,
                        "cached": False, "coalesced": True}
            # Its verdict write is still in flight: answer from the
            # sealed report itself, and leave its stream closed.
            sealed = record.report_dict
        self._seq += 1
        cid = f"c{self._seq:06d}"
        record = CampaignRecord(cid, tenant, name or str(bundle_ref),
                                bundle_ref, key)
        self.campaigns[cid] = record
        if sealed is None:
            self._by_key[key] = cid
        record.stream.emit("service.submitted", name=record.name,
                           detail=tenant)
        record.touch()
        cached = sealed if sealed is not None else (
            await self.loop.run_in_executor(None, self.verdicts.load, key))
        if cached is not None:
            self._cache_hit(record, cached)
            return {"ok": True, "v": PROTOCOL_VERSION, "campaign": cid,
                    "state": record.state.value, "cached": True,
                    "coalesced": False}
        try:
            self.tenants.submit(tenant, record)
        except Backpressure as exc:
            self.metrics.rejected += 1
            # Duplicates that coalesced during the cache probe ride the
            # rejection: the record fails honestly rather than dangle.
            self._failed(cid, f"backpressure: {exc}")
            return error("backpressure", str(exc))
        self.metrics.admitted += 1
        record.stream.emit("service.admitted", name=record.name,
                           detail=tenant)
        record.touch()
        self._pump()
        return {"ok": True, "v": PROTOCOL_VERSION, "campaign": cid,
                "state": record.state.value, "cached": False,
                "coalesced": False}

    # -- protocol ------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = decode(line)
            except ValueError as exc:
                writer.write(encode(error("bad_request", str(exc))))
                await writer.drain()
                return
            op = str(request.get("op", ""))
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                writer.write(encode(error("unknown_op", op)))
            else:
                await handler(request, writer)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _op_submit(self, request: dict, writer) -> None:
        ref = request.get("bundle_ref")
        if not isinstance(ref, str) or not ref:
            writer.write(encode(error(
                "bad_request",
                "bundle_ref must be a 'module:attr' string")))
            return
        response = await self.submit(
            ref, tenant=str(request.get("tenant", "default")),
            name=str(request.get("name", "")))
        writer.write(encode(response))

    async def _op_events(self, request: dict, writer) -> None:
        record = self.campaigns.get(str(request.get("campaign", "")))
        if record is None:
            writer.write(encode(error("unknown_campaign")))
            return
        follow = bool(request.get("follow", True))
        cursor = int(request.get("since", 0))
        writer.write(encode({"ok": True, "campaign": record.id,
                             "state": record.state.value}))
        while True:
            # Snapshot order matters: take the update event *first*,
            # then the tail -- anything emitted after the tail was read
            # sets this event, so the wait below cannot oversleep.
            update = record.update_event()
            tail = record.stream.since(cursor)
            for event in tail:
                if writer.is_closing():
                    return  # subscriber hung up mid-stream
                writer.write(encode({"stream": "event",
                                     "event": event.to_dict()}))
            if tail:
                cursor = tail[-1].seq + 1
            terminal = record.state.terminal
            await writer.drain()
            if terminal or not follow:
                break
            await update.wait()
            if writer.is_closing():
                return
        writer.write(encode({"stream": "end", "state": record.state.value,
                             "next": cursor}))

    async def _op_report(self, request: dict, writer) -> None:
        record = self.campaigns.get(str(request.get("campaign", "")))
        if record is None:
            writer.write(encode(error("unknown_campaign")))
            return
        if bool(request.get("wait", True)):
            while not record.state.terminal:
                await record.update_event().wait()
        if record.state is CampaignState.FAILED:
            writer.write(encode(error("campaign_failed", record.reason)))
            return
        if not record.state.terminal:
            writer.write(encode({"ok": True, "campaign": record.id,
                                 "state": record.state.value}))
            return
        body = {"ok": True, "campaign": record.id,
                "state": record.state.value, "cached": record.cached}
        if bool(request.get("canonical", False)):
            body["canonical_json"] = await self.loop.run_in_executor(
                None, _canonical_text, record.report_dict)
        else:
            body["report"] = record.report_dict
        writer.write(encode(body))

    async def _op_status(self, request: dict, writer) -> None:
        by_state: dict[str, int] = {s.value: 0 for s in CampaignState}
        for record in self.campaigns.values():
            by_state[record.state.value] += 1
        store_stats = await self.loop.run_in_executor(None, self.store.stats)
        writer.write(encode({
            "ok": True,
            "v": PROTOCOL_VERSION,
            "campaigns": by_state,
            "inflight": self._inflight,
            "tenants": self.tenants.snapshot(),
            "verdict_cache": self.verdicts.counters(),
            "store": store_stats,
            "metrics": self.metrics.to_dict(),
        }))

    async def _op_metrics(self, request: dict, writer) -> None:
        store_stats = await self.loop.run_in_executor(None, self.store.stats)
        tenants = self.tenants.snapshot()
        text = prometheus_text(
            "repro_service", self.metrics,
            *((f"tenant_{key}", {t: snap[key] for t, snap in tenants.items()})
              for key in ("weight", "queue_depth", "inflight", "admitted",
                          "rejected", "granted")),
            *sorted(self.verdicts.counters().items()),
            store_stats=store_stats)
        writer.write(encode({"ok": True, "text": text}))

    async def _op_configure_tenant(self, request: dict, writer) -> None:
        tenant = str(request.get("tenant", ""))
        if not tenant:
            writer.write(encode(error("bad_request", "tenant is required")))
            return
        try:
            self.tenants.configure(
                tenant,
                weight=request.get("weight"),
                max_inflight=request.get("max_inflight"),
                max_queued=request.get("max_queued"))
        except (TypeError, ValueError) as exc:
            writer.write(encode(error("bad_request", str(exc))))
            return
        writer.write(encode({"ok": True, "tenant": tenant,
                             "config": self.tenants.snapshot()[tenant]}))

    async def _op_stop(self, request: dict, writer) -> None:
        writer.write(encode({"ok": True, "stopping": True}))
        await writer.drain()
        self.loop.create_task(self.stop())


def _canonical_text(report_dict: dict) -> str:
    """Canonical JSON text of a sealed report dict (executor-side).

    Round-trips through the full report object so the text is
    *byte-identical* to ``report_to_json(campaign.run(...),
    canonical=True)`` of a direct single-process run -- the service's
    core contract.
    """
    return report_to_json(report_from_dict(report_dict), canonical=True)


class ServiceThread:
    """A service on a background thread (tests, demos, benchmarks).

    Owns a private event loop; :meth:`start` blocks until the listener
    is bound and returns ``(host, port)`` for a
    :class:`~repro.service.client.ServiceClient`.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.service: VerificationService | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._main,
                                        name="repro-service", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=60.0):
            raise RuntimeError("service failed to start within 60s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}")
        return self.config.host, self.service.port

    def stop(self) -> None:
        if self._loop is None or self.service is None:
            return
        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(self.service.stop()))
        self._thread.join(timeout=60.0)

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 -- surfaced in start()
            self._startup_error = exc
            self._started.set()

    async def _amain(self) -> None:
        self.service = VerificationService(self.config)
        self._loop = asyncio.get_running_loop()
        await self.service.serve()
        self._started.set()
        await self.service.wait_closed()
