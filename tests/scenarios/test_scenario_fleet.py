"""Scenario-fleet acceptance: distribution is invisible in the results.

Fuzz and Monte-Carlo campaigns run through the worker fleet must
serialize canonically byte-identically to the serial
:class:`ScenarioCampaign` -- across worker counts and straight through
a SIGKILLed worker.
"""

from scenario_harness import SENTINEL_ENV, killer_adder_shadow  # noqa: F401

from repro.fleet import FleetConfig, run_scenario_fleet
from repro.scenarios import FuzzSpec, MonteCarloSpec, ScenarioCampaign

FUZZ = FuzzSpec(name="adder-fuzz",
                target_ref="repro.scenarios.targets:adder4_shadow",
                campaign_seed=2026, seeds=12, cycles=6)
MC = MonteCarloSpec(name="cascade-mc", campaign_seed=2026, samples=48)
SHARDS = 4


def fast_config(tmp_path, **kw):
    kw.setdefault("store_dir", str(tmp_path / "store"))
    kw.setdefault("heartbeat_s", 0.1)
    kw.setdefault("fleet_timeout_s", 120.0)
    return FleetConfig(**kw)


def serial_baseline(spec):
    return ScenarioCampaign(spec, shards=SHARDS).run().to_json(
        canonical=True)


def test_fleet_reports_are_byte_identical_across_worker_counts(tmp_path):
    baselines = {spec.name: serial_baseline(spec) for spec in (FUZZ, MC)}
    for workers in (1, 2, 4):
        result = run_scenario_fleet(
            {FUZZ.name: FUZZ, MC.name: MC}, workers=workers, shards=SHARDS,
            config=fast_config(tmp_path / f"w{workers}"))
        assert result.failed == {}
        assert result.ok()
        for name, baseline in baselines.items():
            assert result.reports[name].to_json(canonical=True) == baseline

        m = result.metrics
        assert m.designs_done == 2 and m.designs_failed == 0
        assert m.jobs_by_kind["scenario"] == 2 * SHARDS
        assert m.jobs_by_kind["rollup"] == 2
        events = [e.event for e in result.trace.events]
        assert events.count("design_done") == 2
        assert "fleet_start" in events and "fleet_end" in events


def test_fleet_rerun_resumes_from_shard_checkpoints(tmp_path):
    # Same store_dir, same spec, same shard layout: the second fleet
    # run must reload every shard checkpoint instead of recomputing --
    # the fleet analogue of a ScenarioCampaign run over a store.
    config = fast_config(tmp_path)
    first = run_scenario_fleet({FUZZ.name: FUZZ}, workers=2, shards=SHARDS,
                               config=config)
    second = run_scenario_fleet({FUZZ.name: FUZZ}, workers=2, shards=SHARDS,
                                config=fast_config(tmp_path))
    assert second.failed == {}
    assert (second.reports[FUZZ.name].to_json(canonical=True)
            == first.reports[FUZZ.name].to_json(canonical=True))
    events = [e.event for e in second.trace.events]
    assert events.count("checkpoint.hit") == SHARDS
    assert events.count("checkpoint.write") == 0


def test_sigkilled_worker_is_survived_and_report_matches(
        tmp_path, monkeypatch):
    sentinel = tmp_path / "kill.sentinel"
    monkeypatch.setenv(SENTINEL_ENV, str(sentinel))
    spec = FuzzSpec(name="hostile-fuzz",
                    target_ref="scenario_harness:killer_adder_shadow",
                    campaign_seed=2026, seeds=8, cycles=4)
    config = fast_config(tmp_path, lease_s=10.0)
    result = run_scenario_fleet({spec.name: spec}, workers=2, shards=SHARDS,
                                config=config)

    assert sentinel.exists()  # a worker really died mid-shard
    assert result.failed == {}
    assert result.metrics.workers_dead == 1
    assert result.metrics.retries >= 1
    events = [e.event for e in result.trace.events]
    assert "worker_dead" in events and "job_requeue" in events

    # With the sentinel present the target is the clean adder, so the
    # serial baseline is directly comparable.
    assert (result.reports[spec.name].to_json(canonical=True)
            == ScenarioCampaign(spec, shards=SHARDS).run().to_json(
                canonical=True))
