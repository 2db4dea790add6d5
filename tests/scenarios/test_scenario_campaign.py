"""Serial scenario campaigns: determinism, detection power, resume.

Pins the acceptance properties from the scenarios contract: canonical
byte-identity across shard layouts, mismatch detection on the seeded
bug, seeds surfaced as recorded facts, and kill-and-resume that never
re-runs a checkpointed seed.
"""

import pytest

import repro.scenarios.campaign as campaign_mod
from repro.scenarios import (
    FuzzSpec,
    MonteCarloSpec,
    ScenarioCampaign,
    derive_seed,
    run_shard,
    shard_key,
)
from repro.store.artifact import ArtifactStore

FUZZ = FuzzSpec(name="adder-fuzz",
                target_ref="repro.scenarios.targets:adder4_shadow",
                campaign_seed=2026, seeds=12, cycles=6)
BUGGY = FuzzSpec(name="adder-bug",
                 target_ref="repro.scenarios.targets:adder4_shadow_seeded_bug",
                 campaign_seed=2026, seeds=6, cycles=6)
MC = MonteCarloSpec(name="cascade-mc", campaign_seed=2026, samples=48)


def canonical(spec, shards, **run_kw):
    return ScenarioCampaign(spec, shards=shards).run(**run_kw).to_json(
        canonical=True)


def test_clean_fuzz_campaign_is_ok_and_seeds_are_recorded_facts():
    report = ScenarioCampaign(FUZZ, shards=3).run()
    assert report.complete() and report.ok()
    assert report.rollup.count() == FUZZ.seeds
    stats = report.rollup.stats()
    assert stats["mismatches"]["max"] == 0.0
    assert stats["compared"]["min"] > 0.0
    # Every sample row and every scenario.sample event carries the
    # derived seed, exactly as derive_seed reproduces it.
    for index, row in report.rollup.samples.items():
        assert row["seed"] == float(derive_seed(2026, "fuzz", index))
    sample_events = [e for e in report.trace.events
                     if e.event == "scenario.sample"]
    assert len(sample_events) == FUZZ.seeds
    assert all("seed" in e.counters for e in sample_events)


def test_canonical_json_is_invariant_to_shard_layout():
    baseline = canonical(FUZZ, 1)
    assert canonical(FUZZ, 3) == baseline
    assert canonical(FUZZ, 12) == baseline
    mc_baseline = canonical(MC, 1)
    assert canonical(MC, 5) == mc_baseline


def test_seeded_bug_is_detected():
    report = ScenarioCampaign(BUGGY, shards=2).run()
    assert report.complete() and not report.ok()
    assert report.rollup.stats()["mismatches"]["max"] > 0.0


def test_montecarlo_distribution_brackets_the_table1_anchor():
    report = ScenarioCampaign(MC, shards=4).run()
    assert report.ok()
    stats = report.rollup.stats()
    power = stats["final_power_w"]
    # Table 1 lands at ~0.5 W nominal; the perturbed population must
    # stay in that neighbourhood and its CI must cover the mean.
    assert 0.3 < power["mean"] < 0.7
    assert power["ci95_lo"] < power["mean"] < power["ci95_hi"]
    assert power["p05"] <= power["p50"] <= power["p95"]
    assert stats["reduction_x"]["min"] > 1.0


def test_resume_replays_checkpoints_without_rerunning_seeds(
        tmp_path, monkeypatch):
    store = ArtifactStore(str(tmp_path / "store"))
    storeless = canonical(FUZZ, 4)
    cold = ScenarioCampaign(FUZZ, shards=4).run(store=store)
    cold_events = [e.event for e in cold.trace.events]
    assert cold_events.count("checkpoint.write") == 4

    def forbid(*a, **kw):
        raise AssertionError("a checkpointed seed was re-run")

    monkeypatch.setattr(campaign_mod, "run_shard", forbid)
    resumed = ScenarioCampaign(FUZZ, shards=4).run(store=store)
    events = [e.event for e in resumed.trace.events]
    assert events.count("checkpoint.hit") == 4
    assert "checkpoint.write" not in events
    assert resumed.to_json(canonical=True) == cold.to_json(canonical=True)
    # And both match a store-less run: checkpoint events are mechanics,
    # not conclusions.
    assert resumed.to_json(canonical=True) == storeless


def test_killed_campaign_resumes_without_rerunning_seeds(
        tmp_path, monkeypatch):
    store = ArtifactStore(str(tmp_path / "store"))
    baseline = canonical(FUZZ, 4)

    calls = []

    def dies_after_two(spec_ref, lo, hi, worker_id=""):
        if len(calls) == 2:
            raise KeyboardInterrupt  # the "SIGKILL": mid-campaign death
        calls.append((lo, hi))
        return run_shard(spec_ref, lo, hi, worker_id=worker_id)

    monkeypatch.setattr(campaign_mod, "run_shard", dies_after_two)
    with pytest.raises(KeyboardInterrupt):
        ScenarioCampaign(FUZZ, shards=4).run(store=store)
    assert len(calls) == 2  # two shards checkpointed, two never ran

    resumed_calls = []

    def counting(spec_ref, lo, hi, worker_id=""):
        resumed_calls.append((lo, hi))
        return run_shard(spec_ref, lo, hi, worker_id=worker_id)

    monkeypatch.setattr(campaign_mod, "run_shard", counting)
    resumed = ScenarioCampaign(FUZZ, shards=4).run(store=store)
    # Only the two missing shards ran; the checkpointed seeds replayed.
    assert sorted(resumed_calls) == sorted(
        b for b in campaign_mod.shard_bounds(FUZZ, 4) if b not in calls)
    events = [e.event for e in resumed.trace.events]
    assert events.count("checkpoint.hit") == 2
    assert events.count("checkpoint.write") == 2
    assert resumed.to_json(canonical=True) == baseline


def test_corrupt_checkpoint_is_quarantined_and_rerun(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    cold = ScenarioCampaign(FUZZ, shards=2).run(store=store)
    key = shard_key(FUZZ, 0, 2)
    store.invalidate(key)
    store.put(key, {"junk": True})  # wrong shape, verifies fine
    resumed = ScenarioCampaign(FUZZ, shards=2).run(store=store)
    events = [e.event for e in resumed.trace.events]
    assert "checkpoint.corrupt" in events
    assert events.count("checkpoint.hit") == 1  # the intact shard
    assert events.count("checkpoint.write") == 1  # the re-run one
    assert resumed.to_json(canonical=True) == cold.to_json(canonical=True)


def test_shard_validation():
    with pytest.raises(ValueError):
        ScenarioCampaign(FUZZ, shards=0)
    with pytest.raises(ValueError):
        run_shard(FUZZ, 0, FUZZ.seeds + 1)
