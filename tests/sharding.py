"""The fleet's sharded battery, run in one process.

The fleet spreads the battery over workers as contiguous slices of the
check registry (:func:`repro.fleet.jobs.partition_checks`), stores each
slice's :meth:`BatteryResult.to_dict`, and joins the slices with
:func:`repro.fleet.merge.merge_shard_batteries`.  :func:`sharded_battery`
does the same without processes or a store, so tests and
``benchmarks/perf_report.py`` can demand that the merge equal one serial
:func:`repro.checks.registry.run_battery`.
"""

from __future__ import annotations

from repro.checks.registry import ALL_CHECKS, run_battery
from repro.fleet.jobs import partition_checks
from repro.fleet.merge import merge_shard_batteries


def sharded_battery(ctx, shards: int, checks=ALL_CHECKS, timeout_s=None):
    """Run ``checks`` as ``shards`` contiguous slices and merge them."""
    return merge_shard_batteries([
        {"battery": run_battery(ctx, checks=checks[lo:hi],
                                timeout_s=timeout_s).to_dict()}
        for lo, hi in partition_checks(len(checks), shards)])
