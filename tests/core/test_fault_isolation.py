"""Injected-fault suite: no check or stage may kill a campaign run.

Covers the fault-isolation contract end to end: crashing and hanging
checks in the serial battery, in its sharded (fleet) form, and inside a
full campaign; stage-level ERROR degradation; the structured trace; and
the triage dedupe/waiver regressions.  A check that kills its whole
process is the fleet's poison-shard case
(``tests/fleet/test_chaos_fleet.py``).
"""

import json
import time

import pytest

from repro.checks.base import Check, Severity
from repro.checks.beta import BetaRatioCheck, DeviceSizeCheck
from repro.checks.driver import make_context
from repro.checks.registry import run_battery
from repro.core.campaign import CbvCampaign, CbvReport, DesignBundle
from repro.core.report import render_report, render_trace, report_to_dict
from repro.core.stages import FlowStage, StageStatus
from repro.core.trace import CampaignTrace
from repro.core.triage import DesignerQueue, QueueItem
from repro.netlist.builder import CellBuilder
from repro.netlist.flatten import flatten
from repro.perf import DesignCache
from repro.process.technology import strongarm_technology
from repro.timing.clocking import TwoPhaseClock
from tests.sharding import sharded_battery


class BoomCheck(Check):
    """Raises unconditionally."""

    name = "boom"

    def run(self, ctx):
        raise RuntimeError("kaboom")


class SlothCheck(Check):
    """Hangs well past any reasonable test budget."""

    name = "sloth"

    def run(self, ctx):
        time.sleep(2.0)
        return []


@pytest.fixture(scope="module")
def tech():
    return strongarm_technology()


@pytest.fixture(scope="module")
def ctx(tech):
    b = CellBuilder("dut", ports=["a", "b", "y", "q", "clk", "clk_b"])
    b.nand(["a", "b"], "n1")
    b.inverter("n1", "y")
    b.transparent_latch("y", "q", "clk", "clk_b")
    return make_context(flatten(b.build()), tech,
                        clock=TwoPhaseClock(period_s=6.25e-9),
                        clock_hints=["clk", "clk_b"])


def make_bundle(tech, **overrides):
    b = CellBuilder("dp", ports=["a", "b", "c", "y", "q", "clk", "clk_b"])
    b.nand(["a", "b"], "n1")
    b.inverter("n1", "and_ab")
    b.nor(["and_ab", "c"], "y")
    b.transparent_latch("y", "q", "clk", "clk_b")
    defaults = dict(
        name="dp",
        cell=b.build(),
        technology=tech,
        clock=TwoPhaseClock(period_s=6.25e-9, non_overlap_s=0.1e-9),
        clock_hints=("clk", "clk_b"),
        rtl_intent={"y": lambda a, b, c: not ((a and b) or c)},
        rtl_inputs={"y": ("a", "b", "c")},
    )
    defaults.update(overrides)
    return DesignBundle(**defaults)


CRASHY = (BetaRatioCheck, BoomCheck, DeviceSizeCheck)


def shapes(findings):
    """Findings without their metrics: a crash finding records its wall
    seconds, which differ between any two runs."""
    return [(f.check, f.subject, f.severity, f.message) for f in findings]


# ---- battery crash isolation -------------------------------------------------


def test_serial_raising_check_becomes_crash_finding(ctx):
    result = run_battery(ctx, checks=CRASHY)
    crash = result.of_check("boom")
    assert len(crash) == 1
    assert crash[0].severity is Severity.VIOLATION
    assert crash[0].subject == "check:boom"
    assert "RuntimeError: kaboom" in crash[0].message
    assert "Traceback" in crash[0].detail and "kaboom" in crash[0].detail
    assert result.crashes.keys() == {"boom"}
    # The healthy neighbours still ran in full.
    assert result.of_check("beta_ratio") and result.of_check("device_size")
    # The crash sits in the crashed check's registry slot.
    order = [f.check for f in result.findings]
    assert order.index("boom") > order.index("beta_ratio")
    assert order.index("boom") < order.index("device_size")


def test_parallel_crash_findings_match_serial_order(ctx):
    serial = run_battery(ctx, checks=CRASHY)
    for shards in (1, 2, 4, 17):
        merged = sharded_battery(ctx, shards, checks=CRASHY)
        assert shapes(merged.findings) == shapes(serial.findings), shards
        assert ({k: shapes(v) for k, v in merged.per_check.items()}
                == {k: shapes(v) for k, v in serial.per_check.items()})
        assert merged.crashes.keys() == {"boom"}
        assert merged.queues.stats() == serial.queues.stats(), shards
        # The crash sits in the crashed check's slot.
        assert list(merged.per_check_seconds) == [c.name for c in CRASHY]


def test_serial_timeout_becomes_crash_finding(ctx):
    start = time.perf_counter()
    result = run_battery(ctx, checks=(SlothCheck, BetaRatioCheck),
                         timeout_s=0.1)
    assert time.perf_counter() - start < 1.5  # did not wait out the hang
    crash = result.of_check("sloth")
    assert len(crash) == 1
    assert crash[0].severity is Severity.VIOLATION
    assert "timed out" in crash[0].message
    assert result.of_check("beta_ratio")


def test_parallel_timeout_becomes_crash_finding(ctx):
    result = sharded_battery(ctx, 2, checks=(SlothCheck, BetaRatioCheck),
                             timeout_s=0.3)
    crash = result.of_check("sloth")
    assert len(crash) == 1 and "timed out" in crash[0].message
    assert result.of_check("beta_ratio")
    assert "sloth" in result.crashes


def test_battery_rejects_bad_knobs(ctx):
    with pytest.raises(ValueError):
        run_battery(ctx, timeout_s=0.0)


# ---- campaign degradation ----------------------------------------------------


def test_campaign_survives_crashing_check(tech):
    report = CbvCampaign(make_bundle(tech)).run(checks=CRASHY)
    circuit = report.stage(FlowStage.CIRCUIT_VERIFICATION)
    assert circuit.status is StageStatus.FAIL
    assert circuit.metrics["check_crashes"] == 1.0
    # The crash is a queue violation: the design cannot tape out on a
    # broken tool's silence.
    assert not report.queue.tapeout_clean()
    assert any(i.source == "boom" and i.subject == "check:boom"
               for i in report.queue.open_violations())
    # Timing still ran.
    assert report.stage(FlowStage.TIMING_VERIFICATION).status is StageStatus.PASS
    assert report.trace.of("check_crash")


def test_campaign_parallel_crash_matches_serial(tech):
    # The fleet's finalize campaign takes its battery from merged shards
    # through ``battery_runner``; a crash must land in the queue exactly
    # as in a serial campaign.
    serial = CbvCampaign(make_bundle(tech)).run(checks=CRASHY)
    par = CbvCampaign(make_bundle(tech)).run(
        checks=CRASHY,
        battery_runner=lambda ctx, trace: sharded_battery(ctx, 2, CRASHY))
    assert par.stage(FlowStage.CIRCUIT_VERIFICATION).metrics[
        "check_crashes"] == 1.0
    assert ([i.identity() for i in par.queue.items]
            == [i.identity() for i in serial.queue.items])
    assert ([(s.stage, s.status) for s in par.stages]
            == [(s.stage, s.status) for s in serial.stages])


def test_campaign_stage_error_degrades_not_dies(tech, monkeypatch):
    def bad_macrocell(*args, **kwargs):
        raise RuntimeError("placer exploded")

    monkeypatch.setattr("repro.core.campaign.generate_macrocell",
                        bad_macrocell)
    report = CbvCampaign(make_bundle(tech)).run()
    layout = report.stage(FlowStage.LAYOUT)
    assert layout.status is StageStatus.ERROR
    assert not layout.ok()
    assert "placer exploded" in layout.summary
    assert any("placer exploded" in line for line in layout.details)
    # Extraction fell back to wireload; everything downstream still ran.
    extraction = report.stage(FlowStage.EXTRACTION)
    assert extraction.status is StageStatus.PASS
    assert "wireload fallback" in extraction.summary
    for flow in (FlowStage.LOGIC_VERIFICATION,
                 FlowStage.CIRCUIT_VERIFICATION,
                 FlowStage.TIMING_VERIFICATION):
        assert report.stage(flow).status is not StageStatus.SKIPPED
    assert not report.ok()
    assert report.errored_stages() == [layout]
    # The trace carries the stage crash with its traceback.
    errors = [e for e in report.trace.crashes() if e.name == "layout"]
    assert errors and "placer exploded" in errors[0].detail
    assert "ERR!" in render_report(report)


def test_campaign_skips_true_dependents_after_recognition_error(
        tech, monkeypatch):
    def bad_recognize(*args, **kwargs):
        raise ValueError("recognizer choked")

    # The campaign recognizes through its DesignCache.
    monkeypatch.setattr("repro.perf.cache.recognize", bad_recognize)
    report = CbvCampaign(make_bundle(tech)).run()
    assert report.stage(FlowStage.RECOGNITION).status is StageStatus.ERROR
    # Layout/extraction only need the flat netlist: they still run.
    assert report.stage(FlowStage.LAYOUT).status is StageStatus.PASS
    assert report.stage(FlowStage.EXTRACTION).status is StageStatus.PASS
    # True dependents of recognition are skipped, with the reason named.
    for flow in (FlowStage.LOGIC_VERIFICATION,
                 FlowStage.CIRCUIT_VERIFICATION,
                 FlowStage.TIMING_VERIFICATION):
        result = report.stage(flow)
        assert result.status is StageStatus.SKIPPED
        assert "missing upstream artifact" in result.summary
    assert not report.ok()
    assert report.trace.of("stage_skipped")


# ---- CbvReport.stage default -------------------------------------------------


def test_report_stage_default_and_error_message():
    report = CbvReport(bundle_name="empty")
    assert report.stage(FlowStage.TIMING_VERIFICATION, default=None) is None
    sentinel = object()
    assert report.stage(FlowStage.LAYOUT, default=sentinel) is sentinel
    with pytest.raises(KeyError) as err:
        report.stage(FlowStage.TIMING_VERIFICATION)
    assert "stages that ran: none" in str(err.value)


def test_report_stage_error_names_ran_stages(tech):
    report = CbvCampaign(make_bundle(tech)).run()
    with pytest.raises(KeyError) as err:
        report.stage(FlowStage.BEHAVIORAL_RTL)
    assert "schematic" in str(err.value)


# ---- structured trace --------------------------------------------------------


def test_campaign_trace_is_well_formed_jsonl(tech):
    report = CbvCampaign(make_bundle(tech)).run()
    text = report.trace.to_jsonl()
    lines = [line for line in text.splitlines() if line]
    records = [json.loads(line) for line in lines]
    assert records[0]["event"] == "campaign_start"
    assert records[-1]["event"] == "campaign_end"
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert all(r["t_s"] >= 0 for r in records)
    starts = [r for r in records if r["event"] == "stage_start"]
    ends = [r for r in records if r["event"] == "stage_end"]
    assert len(starts) == len(ends) == 7
    assert all(e.get("wall_s", 0.0) >= 0.0 for e in ends)
    # The battery's own events are in there too.
    assert any(r["event"] == "battery_start" for r in records)
    assert any(r["event"] == "check_end" for r in records)
    # Stage metrics (incl. perf counters) ride on the stage_end events.
    rec_end = next(e for e in ends if e["name"] == "recognition")
    assert rec_end["counters"]["cccs"] >= 1
    # Round trip.
    rebuilt = CampaignTrace.from_jsonl(text)
    assert [e.to_dict() for e in rebuilt.events] == records
    assert render_trace(report.trace)


def test_trace_serialized_into_report_dict(tech):
    report = CbvCampaign(make_bundle(tech)).run()
    data = report_to_dict(report)
    assert data["trace"] == report.trace.to_dicts()
    json.dumps(data)  # fully JSON-serializable


# ---- make_context routing + cache --------------------------------------------


def test_campaign_routes_through_make_context(tech, monkeypatch):
    calls = []
    import repro.core.campaign as campaign_mod
    real = campaign_mod.make_context

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr("repro.core.campaign.make_context", spy)
    cache = DesignCache()
    report = CbvCampaign(make_bundle(tech)).run(cache=cache)
    assert report.ok(), render_report(report)
    assert len(calls) == 1
    assert calls[0]["cache"] is cache
    assert calls[0]["design"] is report.design
    # Recognition went through the cache exactly once.
    assert cache.misses >= 1
    assert cache.recognized(report.flat, clock_hints=("clk", "clk_b")) \
        is report.design  # now a hit
    assert cache.hits >= 1


def test_campaign_private_memo_cache_matches_process_memo_cache(tech):
    # Given no cache, a campaign builds one over the process-wide
    # classification memo; a DesignCache() carries a private memo.
    process_memo = CbvCampaign(make_bundle(tech)).run()
    private_memo = CbvCampaign(make_bundle(tech)).run(cache=DesignCache())
    assert ([i.identity() for i in private_memo.queue.items]
            == [i.identity() for i in process_memo.queue.items])
    assert private_memo.ok() == process_memo.ok()


# ---- triage regressions ------------------------------------------------------


def test_duplicate_findings_collapse_with_count():
    from repro.checks.base import Finding
    queue = DesignerQueue()
    f = Finding(check="coupling", subject="n1",
                severity=Severity.VIOLATION, message="droop 0.5 V")
    queue.add_findings([f, f, f])
    assert len(queue.items) == 1
    assert queue.items[0].count == 3
    # A different message under the same key stays its own item.
    other = Finding(check="coupling", subject="n1",
                    severity=Severity.VIOLATION, message="droop 0.9 V")
    queue.add_findings([other])
    assert len(queue.items) == 2


def test_waive_signs_off_exactly_one_open_item():
    queue = DesignerQueue()
    queue.items.append(QueueItem("coupling", "n1", Severity.VIOLATION, "m1"))
    queue.items.append(QueueItem("coupling", "n1", Severity.VIOLATION, "m2"))
    assert queue.waive("coupling", "n1", "shielded") == 1
    assert [i.waived for i in queue.items] == [True, False]
    assert not queue.tapeout_clean()
    assert queue.waive("coupling", "n1", "also shielded") == 1
    assert queue.tapeout_clean()
    with pytest.raises(KeyError, match="already waived"):
        queue.waive("coupling", "n1", "third time")


def test_waive_all_matching_is_explicit():
    queue = DesignerQueue()
    queue.items.append(QueueItem("coupling", "n1", Severity.VIOLATION, "m1"))
    queue.items.append(QueueItem("coupling", "n1", Severity.VIOLATION, "m2"))
    assert queue.waive("coupling", "n1", "bulk waiver",
                       all_matching=True) == 2
    assert queue.tapeout_clean()


def test_timing_duplicates_deduplicate():
    from repro.timing.analyzer import TimingPath
    queue = DesignerQueue()
    path = TimingPath(endpoint="q", nets=["a", "q"], arrival_s=1e-9,
                      slack_s=-0.5e-9)
    queue.add_timing([path, path], [])
    assert len(queue.items) == 1
    assert queue.items[0].count == 2
