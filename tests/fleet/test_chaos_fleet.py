"""Fleet chaos acceptance: hung workers, poison shards, clock jumps,
full disks.

Four behaviors the SIGKILL death test cannot reach:

* a SIGSTOPped worker is *alive* -- only the heartbeat-age watchdog
  can notice it, kill it, and requeue its job;
* a shard that kills every worker that leases it must be quarantined
  (ERROR-status circuit stage) instead of eating the respawn budget
  and abandoning the design;
* a lease-clock jump must re-arm the leases of provably live workers,
  not hand their jobs out twice;
* a full disk lands no shard blob at all, so finalize and rollup must
  recompute the shards they cannot load -- as a serial campaign runs on
  un-checkpointed.
"""

import pytest

from fleet_harness import (
    STOP_SENTINEL_ENV,
    KillWorkerAlways,
    StopWorkerOnce,
    dp_bundle,
)

from repro.chaos import FaultPlan
from repro.checks.registry import ALL_CHECKS
from repro.core.campaign import CbvCampaign
from repro.core.report import report_to_json
from repro.core.stages import FlowStage, StageStatus
from repro.fleet import FleetConfig, run_fleet, run_scenario_fleet
from repro.fleet.suite import SEED_SUITE
from repro.scenarios import MonteCarloSpec, ScenarioCampaign

#: Every store write hits ENOSPC: each worker's store degrades on its
#: first write and skips every later one.
FULL_DISK = FaultPlan.make(7, rates={"store.put": 1.0},
                           kinds={"store.put": ("enospc",)})


def test_sigstopped_worker_is_reaped_by_the_watchdog(tmp_path, monkeypatch):
    sentinel = tmp_path / "stop.sentinel"
    monkeypatch.setenv(STOP_SENTINEL_ENV, str(sentinel))
    checks = ALL_CHECKS + (StopWorkerOnce,)
    # lease_s is deliberately long: if the watchdog misses, the frozen
    # worker sits on its lease until the fleet times out, so a pass
    # here proves the heartbeat-age path (not lease expiry) reaped it.
    config = FleetConfig(store_dir=str(tmp_path / "store"), checks=checks,
                         heartbeat_s=0.1, lease_s=60.0, hung_after_s=1.5,
                         fleet_timeout_s=120.0)
    result = run_fleet({"dp": dp_bundle}, workers=2, config=config)

    assert sentinel.exists()  # a worker really froze mid-battery
    assert result.failed == {}
    m = result.metrics
    assert m.workers_hung == 1
    assert m.retries >= 1
    hung = [e for e in result.trace.events if e.event == "worker_hung"]
    assert len(hung) == 1
    assert hung[0].counters["beat_age_s"] >= 1.5

    # With the sentinel present the hostile check is a no-op, so the
    # single-process baseline is directly comparable -- and must match.
    baseline = CbvCampaign(dp_bundle()).run(checks=checks)
    assert (report_to_json(result.reports["dp"], canonical=True)
            == report_to_json(baseline, canonical=True))


def test_poison_shard_degrades_the_design_instead_of_killing_it(tmp_path):
    checks = ALL_CHECKS + (KillWorkerAlways,)
    config = FleetConfig(store_dir=str(tmp_path / "store"), checks=checks,
                         heartbeat_s=0.1, lease_s=10.0, hung_after_s=5.0,
                         max_respawns=8, fleet_timeout_s=180.0)
    result = run_fleet({"dp": dp_bundle}, workers=2, config=config)

    # The design is NOT failed: it ships a degraded report.
    assert result.failed == {}
    assert "dp" in result.reports
    assert result.metrics.poison_shards >= 1
    events = [e.event for e in result.trace.events]
    assert "job_poisoned" in events

    report = result.reports["dp"]
    by_stage = {s.stage: s for s in report.stages}
    circuit = by_stage[FlowStage.CIRCUIT_VERIFICATION]
    assert circuit.status is StageStatus.ERROR
    assert "poison" in circuit.summary.lower()
    # The rest of the flow still concluded around the quarantined shard.
    assert FlowStage.TIMING_VERIFICATION in by_stage
    assert not report.ok()  # degraded is degraded -- never silent


def test_clock_jump_rearms_live_leases_instead_of_requeueing(tmp_path):
    # Seed 8 is pinned: its first scheduler.clock draws fire within the
    # first few supervision ticks, while jobs are leased.
    plan = FaultPlan.make(8, rates={"scheduler.clock": 0.35},
                          clock_jump_s=120.0, max_per_hook=2)
    config = FleetConfig(store_dir=str(tmp_path / "store"),
                         heartbeat_s=0.1, lease_s=20.0, hung_after_s=5.0,
                         fleet_timeout_s=120.0, chaos=plan)
    result = run_fleet({"dp": dp_bundle}, workers=2, config=config)

    assert result.failed == {}
    events = [e.event for e in result.trace.events]
    assert events.count("clock_jump") >= 1
    # The jump expired every outstanding lease by 120 virtual seconds;
    # the holders were provably alive, so the leases re-armed and no
    # job ran twice.
    assert result.metrics.leases_rearmed >= 1
    assert result.metrics.workers_dead == 0
    assert result.metrics.workers_hung == 0

    baseline = CbvCampaign(dp_bundle()).run()
    assert (report_to_json(result.reports["dp"], canonical=True)
            == report_to_json(baseline, canonical=True))


@pytest.mark.parametrize("designs,workers", [
    (("adder8",), 1),
    (("adder8", "alpha_slice"), 2),
])
def test_fleet_survives_a_full_disk(tmp_path, designs, workers):
    suite = {name: SEED_SUITE[name] for name in designs}
    config = FleetConfig(store_dir=str(tmp_path / "store"),
                         heartbeat_s=0.1, fleet_timeout_s=180.0,
                         chaos=FULL_DISK)
    result = run_fleet(suite, workers=workers, config=config)

    assert result.failed == {}
    for name, factory in suite.items():
        assert (report_to_json(result.reports[name], canonical=True)
                == report_to_json(CbvCampaign(factory()).run(),
                                  canonical=True))


def test_scenario_fleet_survives_a_full_disk(tmp_path):
    spec = MonteCarloSpec(name="cascade-mc", campaign_seed=2026, samples=48)
    config = FleetConfig(store_dir=str(tmp_path / "store"),
                         heartbeat_s=0.1, fleet_timeout_s=180.0,
                         chaos=FULL_DISK)
    result = run_scenario_fleet({spec.name: spec}, workers=2, shards=4,
                                config=config)

    assert result.failed == {}
    assert (result.reports[spec.name].to_json(canonical=True)
            == ScenarioCampaign(spec, shards=4).run().to_json(canonical=True))
