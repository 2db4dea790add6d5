"""The fleet's shard readers: a shard they cannot trust is recomputed.

Battery shards (read by the finalize job's merged-battery runner) and
scenario shards (read by the rollup job) both come back through
:func:`repro.store.checkpoint.load_checkpoint`.  A missing blob, or one
whose payload has the wrong shape, is recomputed where it is needed --
the battery slice on the finalize campaign's check context, the
scenario shard with ``run_shard`` -- so the result equals a serial
run's.  A wrong-shaped blob is quarantined on the way and logged.
"""

from repro.checks.registry import run_battery
from repro.core.campaign import CbvCampaign, battery_context
from repro.core.stages import FlowStage
from repro.core.trace import CampaignTrace
from repro.fleet import FleetConfig, ShardSpec, adder_bundle
from repro.fleet.merge import (
    assemble_scenario_report,
    make_battery_runner,
    shard_store_key,
)
from repro.perf import DesignCache
from repro.process.technology import strongarm_technology
from repro.scenarios import FuzzSpec, ScenarioCampaign
from repro.scenarios.spec import shard_key
from repro.store import ArtifactStore, stage_keys

SPEC = FuzzSpec(name="reader-fuzz",
                target_ref="repro.scenarios.targets:adder4_shadow",
                campaign_seed=2026, seeds=4, cycles=2)


def quarantined(store):
    return [p for p in store.quarantine_dir.iterdir() if p.is_file()]


def battery_facts(battery) -> tuple:
    """A battery's findings, check order and crashes (no wall clocks)."""
    return ([f.to_dict() for f in battery.findings],
            list(battery.per_check_seconds), battery.crashes)


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
    partial = CbvCampaign(bundle).run(until=FlowStage.EXTRACTION)
    ctx = battery_context(bundle, partial.artifacts, DesignCache())
    serial = battery_facts(run_battery(ctx, checks=config.checks,
                                       timeout_s=config.timeout_s))

    trace = CampaignTrace()
    # a plain miss: nothing to quarantine, the slice is recomputed
    assert battery_facts(runner(ctx, trace)) == serial
    assert not trace.of("checkpoint.corrupt")

    store.put(key, {"events": "not a list"})
    assert battery_facts(runner(ctx, trace)) == serial
    assert not store.has(key)
    assert len(quarantined(store)) == 1
    corrupt = trace.of("checkpoint.corrupt")
    assert [e.name for e in corrupt] == ["battery shard 1/1"]
    assert "not a battery shard" in corrupt[0].detail


def test_wrong_shaped_scenario_shard_is_quarantined_and_missing(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    shard = ShardSpec(index=0, count=1, lo=0, hi=SPEC.total_samples())
    key = shard_key(SPEC, 0, 1)
    serial = ScenarioCampaign(SPEC).run().to_json(canonical=True)

    trace = CampaignTrace()
    # a plain miss: nothing to quarantine, the shard is recomputed
    report = assemble_scenario_report(store, SPEC, (shard,), trace)
    assert report.to_json(canonical=True) == serial
    assert not trace.of("checkpoint.corrupt")

    store.put(key, {"samples": [], "events": []})
    report = assemble_scenario_report(store, SPEC, (shard,), trace)
    assert report.to_json(canonical=True) == serial
    assert not store.has(key)
    assert len(quarantined(store)) == 1
    corrupt = trace.of("checkpoint.corrupt")
    assert [e.name for e in corrupt] == ["scenario shard 1/1"]
    assert "not a scenario shard" in corrupt[0].detail
