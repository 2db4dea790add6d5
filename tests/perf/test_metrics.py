"""The metrics table (:mod:`repro.perf.metrics`).

Every key a report or an exporter carries is declared once, with its
kind, unit and canonical flag; the canonical form and the Prometheus
exporters read the declarations instead of a key's spelling.  The
golden expositions under ``golden/`` were rendered by the exporters the
table replaced (``render_prometheus`` with its own series table, and
``render_service_prometheus``), so the series must come out byte for
byte as before.
"""

import asyncio
from pathlib import Path

import pytest

from perfbench.designs import chip_bundle
from repro.chaos import ChaosStore, FaultPlan
from repro.core.campaign import CbvCampaign
from repro.core.report import render_trace, report_to_json
from repro.core.trace import CampaignTrace
from repro.fleet import FleetConfig, FleetMetrics, render_prometheus, run_fleet
from repro.fleet.suite import SEED_SUITE, alpha_slice
from repro.perf import DesignCache
from repro.perf.metrics import METRICS, metric
from repro.scenarios import FuzzSpec, MonteCarloSpec, ScenarioCampaign
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceMetrics,
    ServiceThread,
    VerificationService,
)
from repro.service.protocol import decode
from repro.store.artifact import ArtifactStore

GOLDEN = Path(__file__).parent / "golden"

FUZZ = FuzzSpec(name="fz", target_ref="repro.scenarios.targets:adder4_shadow",
                campaign_seed=2026, seeds=8, cycles=4)
MC = MonteCarloSpec(name="mc", campaign_seed=2026, samples=8)
CHAOS = FaultPlan.make(2026, rates={
    "store.put": 0.4, "store.get": 0.4, "store.lock": 0.3,
    "store.latency": 0.5}, latency_s=0.001, max_per_hook=6)


def _keys(trace: CampaignTrace, stages=()) -> set[str]:
    keys = {k for e in trace.events for k in e.counters}
    for stage in stages:
        keys.update(stage.metrics)
    return keys


def _campaign_keys(report) -> set[str]:
    # Canonical serialization looks every kept event's keys up, so it
    # must not raise on what the run emitted.
    report_to_json(report, canonical=True)
    return _keys(report.trace, report.stages)


def test_every_emitted_key_is_declared(tmp_path):
    seen: set[str] = set()
    for name, factory in SEED_SUITE.items():
        for _ in ("cold", "resumed"):
            store = ArtifactStore(tmp_path / f"store-{name}")
            seen |= _campaign_keys(
                CbvCampaign(factory()).run(store=store))
    chaos = ChaosStore(tmp_path / "chaos", CHAOS, lock_stale_s=0.2,
                       lock_timeout_s=5.0, write_backoff_s=0.005)
    seen |= _campaign_keys(
        CbvCampaign(alpha_slice()).run(store=chaos))
    seen |= _campaign_keys(CbvCampaign(chip_bundle(1000, 0, False)).run(
        cache=DesignCache()))
    for spec in (FUZZ, MC):
        report = ScenarioCampaign(spec, shards=2).run()
        report.to_json(canonical=True)
        seen |= _keys(report.trace)
    fleet = run_fleet(SEED_SUITE, workers=2, config=FleetConfig(
        store_dir=str(tmp_path / "fleet"), heartbeat_s=0.1,
        fleet_timeout_s=120.0))
    assert fleet.failed == {}
    for report in fleet.reports.values():
        seen |= _campaign_keys(report)
    seen |= _keys(fleet.trace)
    handle = ServiceThread(ServiceConfig(workers=1, fleet=FleetConfig(
        store_dir=str(tmp_path / "service"))))
    handle.start()
    try:
        client = ServiceClient(handle.config.host, handle.service.port)
        sub = client.submit("repro.fleet.suite:adder8", tenant="keys")
        assert client.wait(sub["campaign"]) == "sealed"
        seen |= {k for e in client.events(sub["campaign"], follow=False)
                 for k in e.get("counters", {})}
    finally:
        handle.stop()

    assert sorted(seen - METRICS.keys()) == []
    # The flows above reach every stage and both scenario kinds.
    assert {"cccs", "packed_paths", "arc_cache_hits", "store_hits",
            "agreement_rate", "final_power_w", "launch_index",
            "steals"} <= seen


def test_undeclared_key_raises_naming_it():
    with pytest.raises(ValueError, match="'no_such_counter'"):
        metric("no_such_counter")
    report = CbvCampaign(alpha_slice()).run()
    report_to_json(report, canonical=True)
    report.stages[0].metrics["no_such_counter"] = 1.0
    report_to_json(report)  # the full form does not judge keys
    with pytest.raises(ValueError, match="'no_such_counter'"):
        report_to_json(report, canonical=True)


def test_setup_line_formats_seconds_by_declared_unit():
    trace = CampaignTrace()
    trace.emit("stage_end", name="logic_verification", counters={
        "table_build_seconds": 0.1234, "target_sweeps": 4.0,
        "min_cycle_s": 2.0})
    assert "setup: build=0.12s tsweeps=4" in render_trace(trace)
    assert metric("table_build_seconds").unit == "s"
    assert not metric("table_build_seconds").canonical
    assert metric("min_cycle_s").unit == "s"
    assert metric("min_cycle_s").canonical


def _fleet_full() -> FleetMetrics:
    m = FleetMetrics(workers=2)
    for value, name in enumerate((
            "workers_alive", "workers_spawned", "workers_dead",
            "workers_hung", "designs", "designs_done", "designs_failed",
            "jobs_submitted", "jobs_done", "jobs_failed", "poison_shards",
            "retries", "steals", "requeues", "lease_expirations",
            "leases_rearmed", "heartbeats", "queue_depth", "blocked_jobs",
            "active_leases", "write_contended", "session_hits"), start=3):
        setattr(m, name, value)
    m.worker_peak_rss_mb = 101.5
    m.wall_s = 2.25
    m.stage_wall_s = {"prepare": 0.5, "battery": 1.25, "finalize": 0.125}
    m.jobs_by_kind = {"prepare": 2, "battery": 4, "finalize": 2}
    m.store_stats = {"entries": 12, "total_bytes": 34567,
                     "quarantine_depth": 1, "degraded": True}
    return m


@pytest.mark.parametrize("golden, metrics", [
    ("fleet_full", _fleet_full()), ("fleet_bare", FleetMetrics())])
def test_fleet_exposition_matches_golden(golden, metrics):
    expected = (GOLDEN / f"{golden}.prom").read_text()
    assert render_prometheus(metrics) == expected


TENANTS = {
    "zeta": {"weight": 1.0, "queue_depth": 0, "inflight": 1,
             "max_inflight": 4, "max_queued": 64, "admitted": 2,
             "rejected": 0, "granted": 2},
    "acme": {"weight": 4.0, "queue_depth": 2, "inflight": 3,
             "max_inflight": 4, "max_queued": 64, "admitted": 5,
             "rejected": 2, "granted": 3},
}
VERDICTS = {"verdict_hits": 3, "verdict_misses": 4, "verdict_seals": 3,
            "verdict_rejected": 0}


@pytest.mark.parametrize("golden, metrics, tenants, store", [
    ("service_full",
     ServiceMetrics(submissions=9, admitted=7, rejected=2, cache_hits=3,
                    coalesced=1, launched=4, sealed=3, failed=1),
     TENANTS, {"entries": 40, "total_bytes": 123456,
               "quarantine_depth": 0, "degraded": False}),
    ("service_bare", ServiceMetrics(), {}, {}),
])
def test_service_exposition_matches_golden(tmp_path, monkeypatch, golden,
                                           metrics, tenants, store):
    service = VerificationService(ServiceConfig(
        fleet=FleetConfig(store_dir=str(tmp_path / "store"))))
    service.metrics = metrics
    monkeypatch.setattr(service.tenants, "snapshot", lambda: tenants)
    monkeypatch.setattr(service.verdicts, "counters", lambda: VERDICTS)
    monkeypatch.setattr(service.store, "stats", lambda: store)
    sent: list[bytes] = []

    class Writer:
        write = staticmethod(sent.append)

    async def scrape():
        service.loop = asyncio.get_running_loop()
        await service._op_metrics({"op": "metrics"}, Writer())

    asyncio.run(scrape())
    expected = (GOLDEN / f"{golden}.prom").read_text()
    assert decode(b"".join(sent))["text"] == expected
