"""The serial scenario campaign: shards in-process, checkpoints shared.

:class:`ScenarioCampaign` is the single-process front door (and the
fleet's semantic baseline): it partitions the sample range into
contiguous shards, runs each through
:func:`repro.scenarios.runner.run_shard`, and -- when given an
:class:`~repro.store.ArtifactStore` -- checkpoints every completed
shard under :func:`repro.scenarios.spec.shard_key`, and replays the
verified shard blobs the store already holds instead of re-running
their seeds: the replay restores the per-sample metrics *and* the
``scenario.sample`` trace events, then logs a ``checkpoint.hit``, so
"no re-run of checkpointed seeds" is observable in both the trace and
the store counters.

The shard layout is part of the checkpoint key: the same campaign
sharded differently computes fresh blobs (correct -- blob contents
depend on the index range), while the same layout resumes exactly.
Because samples re-derive their seeds from ``(campaign_seed, stream,
index)``, the report is canonically byte-identical across any shard
count, worker count, or interruption pattern -- the property the
scenario acceptance tests pin.
"""

from __future__ import annotations

from repro.core.trace import CampaignTrace
from repro.fleet.jobs import partition_checks
from repro.scenarios.report import (
    ScenarioReport,
    check_scenario_shard,
    finish_report,
    sample_events,
)
from repro.scenarios.rollup import ScenarioRollup
from repro.scenarios.runner import run_shard
from repro.scenarios.spec import ScenarioSpec, shard_key


def shard_bounds(spec: ScenarioSpec, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` sample ranges for one campaign.

    Reuses the battery partitioner: sizes differ by at most one and
    concatenating the ranges reproduces ``range(total)`` -- the
    invariant the shard-order trace merge rests on.
    """
    return partition_checks(spec.total_samples(), shards)


class ScenarioCampaign:
    """Runs one scenario spec, checkpointed and resumed from a store
    when given one."""

    def __init__(self, spec: ScenarioSpec, shards: int = 1) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.spec = spec
        self.shards = shards

    def run(self, *, store=None,
            trace: CampaignTrace | None = None) -> ScenarioReport:
        """Execute (or resume) every shard; returns the sealed report."""
        from repro.store.checkpoint import CheckpointWriter, load_checkpoint

        spec = self.spec
        if trace is None:
            trace = CampaignTrace()
        writer = CheckpointWriter(store, trace)
        trace.emit("campaign_start", name=spec.name)
        bounds = shard_bounds(spec, self.shards)
        rollup = ScenarioRollup()
        for index, (lo, hi) in enumerate(bounds):
            label = f"{spec.name}:shard[{index + 1}/{len(bounds)}]"
            payload = None
            if store is not None:
                key = shard_key(spec, index, len(bounds))
                payload = load_checkpoint(store, key, label, trace,
                                          check_scenario_shard)
            replayed = payload is not None
            if payload is None:
                payload = run_shard(spec, lo, hi, worker_id=trace.worker_id)
            for sample_index, metrics in payload["samples"].items():
                rollup.add_sample(int(sample_index), metrics)
            trace.replay(sample_events(payload))
            if store is not None:
                if replayed:
                    trace.emit("checkpoint.hit", name=label)
                else:
                    writer.write(key, payload, meta={
                        "scenario": spec.name, "kind": spec.kind,
                        "shard": f"{index + 1}/{len(bounds)}",
                    }, label=label)
        return finish_report(spec, rollup, trace)
