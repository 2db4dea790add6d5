"""repro.fleet -- sharded multi-process verification fleet.

The paper's verification effort ran on "several hundred workstations";
this package is that farm in miniature: :func:`run_fleet` decomposes
each design's campaign into shardable jobs (:mod:`repro.fleet.jobs`),
schedules them onto supervised worker processes via a work-stealing
lease queue (:mod:`repro.fleet.queue`, :mod:`repro.fleet.scheduler`),
and merges the shard results (:mod:`repro.fleet.merge`) into reports
whose canonical JSON is byte-identical to single-process runs -- even
after worker deaths, thanks to bounded retries over the shared
checkpoint store.

The same engine also runs the statistical workloads of
:mod:`repro.scenarios`: :func:`run_scenario_fleet` shards fuzzing and
Monte-Carlo campaigns into seed-range jobs plus a rollup job each.

Quickstart::

    from repro.fleet import run_fleet, SEED_SUITE
    result = run_fleet(SEED_SUITE, workers=4)
    assert result.ok()

    from repro.fleet import run_scenario_fleet
    from repro.scenarios import FuzzSpec
    fuzz = FuzzSpec(name="adder-fuzz",
                    target_ref="repro.scenarios.targets:adder4_shadow",
                    campaign_seed=2026, seeds=64)
    result = run_scenario_fleet({"adder-fuzz": fuzz}, workers=4, shards=8)

or from a shell: ``python -m repro.fleet --workers 4``.
"""

from repro.fleet.jobs import (
    FleetConfig,
    Job,
    JobKind,
    ShardSpec,
    battery_jobs,
    finalize_job,
    partition_checks,
    prepare_job,
    resolve_bundle,
    scenario_jobs,
    scenario_rollup_job,
    shard_count_for,
)
from repro.fleet.merge import (
    CHECK_EVENTS,
    PoisonShards,
    assemble_scenario_report,
    make_battery_runner,
    merge_shard_batteries,
    shard_store_key,
)
from repro.fleet.metrics import (
    FleetMetrics,
    render_prometheus,
)
from repro.fleet.queue import Lease, WorkQueue
from repro.fleet.scheduler import (
    FleetResult,
    design_flow_hook,
    run_fleet,
    run_scenario_fleet,
)
from repro.fleet.suite import (
    BENCH_SUITE,
    SEED_SUITE,
    adder_bundle,
    alpha_slice_bundle,
)
from repro.fleet.worker import execute_job, worker_main

__all__ = [
    "BENCH_SUITE",
    "CHECK_EVENTS",
    "FleetConfig",
    "FleetMetrics",
    "FleetResult",
    "Job",
    "JobKind",
    "Lease",
    "PoisonShards",
    "SEED_SUITE",
    "ShardSpec",
    "WorkQueue",
    "adder_bundle",
    "alpha_slice_bundle",
    "assemble_scenario_report",
    "battery_jobs",
    "design_flow_hook",
    "execute_job",
    "finalize_job",
    "make_battery_runner",
    "merge_shard_batteries",
    "partition_checks",
    "prepare_job",
    "render_prometheus",
    "resolve_bundle",
    "run_fleet",
    "run_scenario_fleet",
    "scenario_jobs",
    "scenario_rollup_job",
    "shard_count_for",
    "shard_store_key",
    "worker_main",
]
