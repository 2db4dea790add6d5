"""The fleet's shard readers: a shard they cannot trust is ShardMissing.

Battery shards (read by the finalize job's merged-battery runner) and
scenario shards (read by the rollup job) both come back through
:func:`repro.store.checkpoint.load_checkpoint`.  A missing blob, or one
whose payload has the wrong shape, must raise :class:`ShardMissing` so
the job errors and is retried; a wrong-shaped blob is quarantined on the
way and logged, so the retry recomputes it instead of re-tripping.
"""

import pytest

from repro.core.stages import FlowStage
from repro.core.trace import CampaignTrace
from repro.fleet import FleetConfig, ShardMissing, ShardSpec, adder_bundle
from repro.fleet.merge import (
    assemble_scenario_report,
    make_battery_runner,
    shard_store_key,
)
from repro.process.technology import strongarm_technology
from repro.scenarios import FuzzSpec
from repro.scenarios.spec import shard_key
from repro.store import ArtifactStore, stage_keys

SPEC = FuzzSpec(name="reader-fuzz",
                target_ref="repro.scenarios.targets:adder4_shadow",
                campaign_seed=2026, seeds=4, cycles=2)


def quarantined(store):
    return [p for p in store.quarantine_dir.iterdir() if p.is_file()]


def test_wrong_shaped_battery_shard_is_quarantined_and_missing(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    bundle = adder_bundle(strongarm_technology())
    config = FleetConfig(store_dir=str(tmp_path / "store"))
    shard = ShardSpec(index=0, count=1, lo=0, hi=len(config.checks))
    circuit_key = stage_keys(bundle, checks=config.checks,
                             timeout_s=config.timeout_s)[
                                 FlowStage.CIRCUIT_VERIFICATION]
    key = shard_store_key(circuit_key, shard)
    runner = make_battery_runner(store, circuit_key, (shard,), config)

    trace = CampaignTrace()
    with pytest.raises(ShardMissing):
        runner(None, trace)  # a plain miss: nothing to quarantine
    assert not trace.of("checkpoint.corrupt")

    store.put(key, {"events": "not a list"})
    with pytest.raises(ShardMissing):
        runner(None, trace)
    assert not store.has(key)
    assert len(quarantined(store)) == 1
    corrupt = trace.of("checkpoint.corrupt")
    assert [e.name for e in corrupt] == ["battery shard 1/1"]
    assert "not a battery shard" in corrupt[0].detail


def test_wrong_shaped_scenario_shard_is_quarantined_and_missing(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    shard = ShardSpec(index=0, count=1, lo=0, hi=SPEC.total_samples())
    key = shard_key(SPEC, 0, 1)

    trace = CampaignTrace()
    with pytest.raises(ShardMissing):
        assemble_scenario_report(store, SPEC, (shard,), trace)
    assert not trace.of("checkpoint.corrupt")

    store.put(key, {"samples": [], "events": []})
    with pytest.raises(ShardMissing):
        assemble_scenario_report(store, SPEC, (shard,), trace)
    assert not store.has(key)
    assert len(quarantined(store)) == 1
    corrupt = trace.of("checkpoint.corrupt")
    assert [e.name for e in corrupt] == ["scenario shard 1/1"]
    assert "not a scenario shard" in corrupt[0].detail
