"""The battery's parallel form: contiguous shards, merged in registry order.

The fleet runs the battery in parallel as shard jobs over contiguous
slices of the registry.  These tests run the same slices in-process
(:func:`tests.sharding.sharded_battery`) and demand the merge equal one
serial ``run_battery``: findings, per-check slots, timing order, triage.
"""

import pytest

from repro.checks.driver import make_context
from repro.checks.registry import ALL_CHECKS, run_battery
from repro.designs.adders import domino_carry_adder
from repro.designs.latch_zoo import jamb_latch
from repro.netlist.flatten import flatten
from repro.perf import DesignCache
from repro.process.technology import strongarm_technology
from repro.timing.clocking import TwoPhaseClock
from tests.sharding import sharded_battery

SHARD_COUNTS = (1, 2, 4, 17)


@pytest.fixture(scope="module")
def ctx():
    return make_context(
        flatten(domino_carry_adder(4)),
        strongarm_technology(),
        clock=TwoPhaseClock(period_s=6.25e-9),
        cache=DesignCache(),
    )


def test_parallel_findings_byte_identical(ctx):
    serial = run_battery(ctx)
    for shards in SHARD_COUNTS:
        merged = sharded_battery(ctx, shards)
        assert merged.findings == serial.findings, shards
        assert merged.per_check == serial.per_check, shards
        assert list(merged.per_check_seconds) == list(serial.per_check_seconds)
        assert merged.queues.stats() == serial.queues.stats(), shards


def test_parallel_on_sequential_design():
    ctx = make_context(flatten(jamb_latch()), strongarm_technology(),
                       clock=TwoPhaseClock(period_s=6.25e-9))
    serial = run_battery(ctx)
    for shards in SHARD_COUNTS:
        merged = sharded_battery(ctx, shards)
        assert merged.findings == serial.findings, shards
        assert merged.per_check == serial.per_check, shards


def test_per_check_seconds_populated(ctx):
    result = run_battery(ctx)
    assert set(result.per_check_seconds) == {c().name for c in ALL_CHECKS}
    assert all(s >= 0.0 for s in result.per_check_seconds.values())
    assert result.total_seconds() == pytest.approx(
        sum(result.per_check_seconds.values()))


def test_subset_battery_parallel(ctx):
    checks = ALL_CHECKS[:5]
    serial = run_battery(ctx, checks=checks)
    merged = sharded_battery(ctx, 3, checks=checks)
    assert merged.findings == serial.findings
    assert list(merged.per_check_seconds) == [c.name for c in checks]
