"""Worker-supervision acceptance: SIGKILL a worker mid-battery.

A hostile check (see :mod:`fleet_harness`) SIGKILLs the first worker
process that runs it, exactly once fleet-wide.  The supervisor must
detect the death, requeue the dead worker's leased job onto a freshly
spawned replacement, and still deliver a merged report canonically
byte-identical to a single-process run of the same check list.  A
worker killed partway through sending a message must not wedge the
other workers' messages either.
"""

from fleet_harness import (
    SENTINEL_ENV,
    TORN_SENTINEL_ENV,
    KillWorkerOnce,
    dp_bundle,
    torn_worker_main,
)

from repro.checks.registry import ALL_CHECKS
from repro.core.campaign import CbvCampaign
from repro.core.report import report_to_json
from repro.fleet import FleetConfig, run_fleet, scheduler

HOSTILE_CHECKS = ALL_CHECKS + (KillWorkerOnce,)


def test_sigkilled_worker_is_replaced_and_report_matches(tmp_path,
                                                         monkeypatch):
    sentinel = tmp_path / "kill.sentinel"
    monkeypatch.setenv(SENTINEL_ENV, str(sentinel))
    config = FleetConfig(store_dir=str(tmp_path / "store"),
                         checks=HOSTILE_CHECKS,
                         heartbeat_s=0.1, lease_s=10.0,
                         fleet_timeout_s=120.0)
    result = run_fleet({"dp": dp_bundle}, workers=2, config=config)

    # The check fired (and therefore a worker actually died mid-battery).
    assert sentinel.exists()
    assert result.failed == {}
    m = result.metrics
    assert m.workers_dead == 1
    assert m.workers_spawned == 3  # 2 initial + 1 replacement
    assert m.retries >= 1

    events = [e.event for e in result.trace.events]
    assert "worker_dead" in events
    assert "worker_spawn" in events
    assert "job_requeue" in events
    # The replacement got a fresh id (never a reused one), so
    # (worker, seq) identities in the merged log cannot collide even
    # across a respawn.  Whether w2 or the surviving worker ends up
    # *running* the requeued job is a steal-timing race, so assert on
    # the spawn record, not on w2 having recorded events.
    spawned = {e.name for e in result.trace.events
               if e.event == "worker_spawn"}
    assert spawned == {"w0", "w1", "w2"}
    keys = [(e.worker, e.seq) for e in result.trace.events]
    assert len(set(keys)) == len(keys)

    # With the sentinel present the hostile check is a clean no-op, so
    # the single-process baseline is directly comparable -- and the
    # fleet's merged report must match it byte for byte.
    baseline = CbvCampaign(dp_bundle()).run(checks=HOSTILE_CHECKS)
    assert (report_to_json(result.reports["dp"], canonical=True)
            == report_to_json(baseline, canonical=True))


def test_worker_killed_mid_message_does_not_wedge_the_fleet(tmp_path,
                                                            monkeypatch):
    """The first ``done`` reply fleet-wide is torn: its worker writes half
    the message to its pipe and dies.  Only that worker's channel is
    cut; the finished-but-unreported job is requeued and the design
    completes with the serial report."""
    sentinel = tmp_path / "torn.sentinel"
    monkeypatch.setenv(TORN_SENTINEL_ENV, str(sentinel))
    monkeypatch.setattr(scheduler, "worker_main", torn_worker_main)
    config = FleetConfig(store_dir=str(tmp_path / "store"),
                         heartbeat_s=0.1, lease_s=10.0,
                         fleet_timeout_s=120.0)
    result = run_fleet({"dp": dp_bundle}, workers=2, config=config)

    assert sentinel.exists()
    assert result.failed == {}
    assert result.metrics.workers_dead == 1
    assert result.metrics.retries >= 1
    baseline = CbvCampaign(dp_bundle()).run()
    assert (report_to_json(result.reports["dp"], canonical=True)
            == report_to_json(baseline, canonical=True))
