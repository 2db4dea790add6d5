"""Chaos acceptance: survivable fault schedules are invisible in reports.

The contract under test (the tentpole of the chaos harness): a
campaign run against a :class:`ChaosStore` drawing a *survivable*
fault schedule must produce canonical report JSON byte-identical to a
fault-free run -- faults may cost retries, quarantines, re-runs, and
even all durability (sticky ENOSPC), but never a different conclusion.
"""

from functools import lru_cache

from repro.chaos import ChaosStore, FaultPlan
from repro.core.campaign import CbvCampaign
from repro.core.report import report_to_json
from repro.fleet.suite import alpha_slice_bundle
from repro.process.technology import strongarm_technology
from repro.scenarios import FuzzSpec, ScenarioCampaign

#: Pinned schedule known (and asserted below) to actually inject: the
#: test must fail loudly if a refactor silently stops faults firing.
MIXED_PLAN = FaultPlan.make(2026, rates={
    "store.put": 0.4, "store.get": 0.4, "store.lock": 0.3,
    "store.latency": 0.5}, latency_s=0.001, max_per_hook=6)

FUZZ = FuzzSpec(name="chaos-fuzz",
                target_ref="repro.scenarios.targets:adder4_shadow",
                campaign_seed=2026, seeds=8, cycles=4)


def bundle():
    return alpha_slice_bundle(strongarm_technology())


@lru_cache(maxsize=1)
def campaign_baseline() -> str:
    return report_to_json(CbvCampaign(bundle()).run(), canonical=True)


@lru_cache(maxsize=1)
def scenario_baseline() -> str:
    return ScenarioCampaign(FUZZ, shards=2).run().to_json(canonical=True)


def chaos_store(root, plan, **kw):
    kw.setdefault("lock_stale_s", 0.2)
    kw.setdefault("lock_timeout_s", 5.0)
    kw.setdefault("write_backoff_s", 0.005)
    return ChaosStore(root, plan, **kw)


def test_mixed_store_faults_are_survived_byte_identically(tmp_path):
    store = chaos_store(tmp_path / "store", MIXED_PLAN)
    report = CbvCampaign(bundle()).run(store=store)
    assert sum(store.injector.counters().values()) > 0  # schedule fired
    assert report_to_json(report, canonical=True) == campaign_baseline()

    # Resume through the same schedule: surviving checkpoints replay,
    # corrupted ones quarantine and re-run, and the report still
    # matches byte for byte.
    resumed_store = chaos_store(tmp_path / "store", MIXED_PLAN)
    resumed = CbvCampaign(bundle()).run(store=resumed_store)
    assert report_to_json(resumed, canonical=True) == campaign_baseline()
    events = {e.event for e in resumed.trace.events}
    assert "checkpoint.hit" in events  # it genuinely resumed


def test_enospc_degraded_campaign_still_concludes_identically(tmp_path):
    plan = FaultPlan.make(7, rates={"store.put": 1.0},
                          kinds={"store.put": ("enospc",)}, max_per_hook=99)
    store = chaos_store(tmp_path / "store", plan, write_retries=1)
    report = CbvCampaign(bundle()).run(store=store)

    assert store.degraded
    degraded = [e for e in report.trace.events if e.event == "store.degraded"]
    assert len(degraded) == 1  # announced exactly once, then quiet
    # Un-checkpointed, but the conclusions are untouched.
    assert report_to_json(report, canonical=True) == campaign_baseline()
    assert store.counters()["store_writes"] == 0


def test_scenario_campaign_survives_store_faults(tmp_path):
    store = chaos_store(tmp_path / "store", MIXED_PLAN)
    report = ScenarioCampaign(FUZZ, shards=2).run(store=store)
    assert report.to_json(canonical=True) == scenario_baseline()

    resumed_store = chaos_store(tmp_path / "store", MIXED_PLAN)
    resumed = ScenarioCampaign(FUZZ, shards=2).run(store=resumed_store)
    assert resumed.to_json(canonical=True) == scenario_baseline()


def test_scenario_campaign_survives_full_disk(tmp_path):
    plan = FaultPlan.make(7, rates={"store.put": 1.0},
                          kinds={"store.put": ("enospc",)}, max_per_hook=99)
    store = chaos_store(tmp_path / "store", plan, write_retries=1)
    report = ScenarioCampaign(FUZZ, shards=2).run(store=store)
    assert store.degraded
    assert report.to_json(canonical=True) == scenario_baseline()
