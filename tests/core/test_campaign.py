"""Unit tests for repro.core: the full CBV flow."""

import pytest

from repro.checks.base import Severity
from repro.core.campaign import CbvCampaign, DesignBundle
from repro.core.report import render_report
from repro.core.stages import FlowStage, StageStatus
from repro.core.triage import DesignerQueue, QueueItem
from repro.netlist.builder import CellBuilder
from repro.process.technology import strongarm_technology
from repro.timing import driver as timing_pipeline
from repro.timing.clocking import TwoPhaseClock
from repro.timing.pessimism import PessimismSettings


@pytest.fixture(scope="module")
def tech():
    return strongarm_technology()


def small_datapath_cell():
    b = CellBuilder("dp", ports=["a", "b", "c", "y", "q", "clk", "clk_b"])
    b.nand(["a", "b"], "n1")
    b.inverter("n1", "and_ab")
    b.nor(["and_ab", "c"], "y")
    b.transparent_latch("y", "q", "clk", "clk_b")
    return b.build()


def make_bundle(tech, **overrides):
    defaults = dict(
        name="dp",
        cell=small_datapath_cell(),
        technology=tech,
        clock=TwoPhaseClock(period_s=6.25e-9, non_overlap_s=0.1e-9),
        clock_hints=("clk", "clk_b"),
        rtl_intent={"y": lambda a, b, c: not ((a and b) or c)},
        rtl_inputs={"y": ("a", "b", "c")},
    )
    defaults.update(overrides)
    return DesignBundle(**defaults)


def test_full_campaign_clean_design(tech):
    report = CbvCampaign(make_bundle(tech)).run()
    assert report.ok(), render_report(report)
    for stage in (FlowStage.SCHEMATIC, FlowStage.RECOGNITION,
                  FlowStage.LAYOUT, FlowStage.EXTRACTION,
                  FlowStage.LOGIC_VERIFICATION,
                  FlowStage.CIRCUIT_VERIFICATION,
                  FlowStage.TIMING_VERIFICATION):
        assert report.stage(stage).status is not StageStatus.FAIL
    assert report.stage(FlowStage.LOGIC_VERIFICATION).metrics["outputs_checked"] == 1
    assert report.timing is not None
    assert report.timing.min_cycle_time_s < 6.25e-9  # meets 160 MHz easily


def test_campaign_catches_wrong_logic(tech):
    bundle = make_bundle(
        tech,
        rtl_intent={"y": lambda a, b, c: not (a and b and c)},  # wrong intent
        rtl_inputs={"y": ("a", "b", "c")},
    )
    report = CbvCampaign(bundle).run()
    logic = report.stage(FlowStage.LOGIC_VERIFICATION)
    assert logic.status is StageStatus.FAIL
    assert logic.details  # counterexample recorded


def test_campaign_functional_sim_leg(tech):
    """Functional vectors ride the logic stage through the vector engine
    and surface the solve/skip perf counters in the stage metrics."""
    from repro.perf import DesignCache

    bundle = make_bundle(
        tech,
        functional_vectors=(
            {"a": 1, "b": 1, "c": 0, "clk": 0, "clk_b": 1},
            {"clk": 1, "clk_b": 0},   # latch opens: q follows y = 0
            {"clk": 0, "clk_b": 1},   # latch closes: q holds
        ),
        functional_probes=("y", "q"),
    )
    cache = DesignCache()
    report = CbvCampaign(bundle).run(cache=cache,
                                     until=FlowStage.LOGIC_VERIFICATION)
    logic = report.stage(FlowStage.LOGIC_VERIFICATION)
    assert logic.status is StageStatus.PASS, logic.details
    m = logic.metrics
    assert m["sim_steps"] == 3 and m["sim_events"] > 0
    assert m["solve_count"] + m["skip_count"] == m["naive_net_solves"]
    assert m["solve_count"] > 0
    # The vector engine's packed tables routed through the session cache.
    assert cache.misses >= 1


STORELESS_SCRIPT = """
import sys
import repro.core
from repro.core.campaign import CbvCampaign, DesignBundle
from repro.core.stages import FlowStage
from repro.netlist.builder import CellBuilder
from repro.process.technology import strongarm_technology
from repro.timing.clocking import TwoPhaseClock

b = CellBuilder("dp", ports=["a", "b", "c", "y", "q", "clk", "clk_b"])
b.nand(["a", "b"], "n1")
b.inverter("n1", "and_ab")
b.nor(["and_ab", "c"], "y")
b.transparent_latch("y", "q", "clk", "clk_b")
bundle = DesignBundle(
    name="dp", cell=b.build(), technology=strongarm_technology(),
    clock=TwoPhaseClock(period_s=6.25e-9, non_overlap_s=0.1e-9),
    clock_hints=("clk", "clk_b"),
    functional_vectors=({"a": 1, "b": 1, "c": 0, "clk": 0, "clk_b": 1},
                        {"clk": 1, "clk_b": 0}, {"clk": 0, "clk_b": 1}),
    functional_probes=("y", "q"))
before = set(sys.modules)
report = CbvCampaign(bundle).run()
logic = report.stage(FlowStage.LOGIC_VERIFICATION)
print(sorted(set(sys.modules) - before), logic.metrics.get("sim_steps"))
"""


def test_storeless_campaign_imports_no_module():
    """A campaign without a store imports nothing its design has not:
    no store module, and no ``numpy.ma`` from the switch-table build
    (which its functional vectors run)."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", STORELESS_SCRIPT],
                         env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True)
    assert out.stdout.split() == ["[]", "3.0"]


def test_campaign_functional_probe_x_fails(tech):
    bundle = make_bundle(
        tech,
        rtl_intent={}, rtl_inputs={},
        # Clock never driven: the latch output q must stay unknown.
        functional_vectors=({"a": 1, "b": 0, "c": 0},),
        functional_probes=("q",),
    )
    report = CbvCampaign(bundle).run(until=FlowStage.LOGIC_VERIFICATION)
    logic = report.stage(FlowStage.LOGIC_VERIFICATION)
    assert logic.status is StageStatus.FAIL
    assert any("probe q" in d for d in logic.details)


def test_campaign_catches_electrical_defect(tech):
    """Seed a sub-minimum device: circuit verification must fail and the
    queue must carry the violation."""
    cell = small_datapath_cell()
    bad = next(t for t in cell.transistors if t.polarity == "nmos")
    bad.w_um = 0.1  # below manufacturable minimum
    bundle = make_bundle(tech, cell=cell)
    report = CbvCampaign(bundle).run()
    assert report.stage(FlowStage.CIRCUIT_VERIFICATION).status is StageStatus.FAIL
    assert not report.queue.tapeout_clean()
    assert any(i.source == "device_size" for i in report.queue.open_violations())


def test_campaign_catches_timing_failure(tech):
    bundle = make_bundle(tech, clock=TwoPhaseClock(period_s=30e-12))
    report = CbvCampaign(bundle).run()
    assert report.stage(FlowStage.TIMING_VERIFICATION).status is StageStatus.FAIL
    assert any(i.source == "timing.setup" for i in report.queue.open_violations())


def test_campaign_wireload_mode(tech):
    report = CbvCampaign(make_bundle(tech, use_layout=False)).run()
    assert report.stage(FlowStage.LAYOUT).status is StageStatus.SKIPPED
    assert report.stage(FlowStage.EXTRACTION).status is StageStatus.PASS


def _check_verdicts(report) -> dict[str, Severity]:
    return {f.subject: f.severity for f in
            report.artifacts["battery"].of_check("timing_setup_race")}


def _stage_flags(report) -> list[str]:
    timing = report.timing
    return sorted({p.endpoint for p in timing.setup_violations}
                  | {r.constraint.net for r in timing.races})


def test_check_and_stage_agree_under_default_rules(tech):
    """At default pessimism with no false paths the battery's setup/race
    check and the timing stage run the same pipeline under the same
    rules, so they flag the same endpoints."""
    report = CbvCampaign(make_bundle(
        tech, clock=TwoPhaseClock(period_s=30e-12))).run()
    flagged = sorted(net for net, severity in _check_verdicts(report).items()
                     if severity is Severity.VIOLATION)
    assert flagged == _stage_flags(report) == ["lat_13", "q", "y"]


def test_check_keeps_default_rules_under_bundle_pessimism(tech):
    """The check ignores the bundle's pessimism; only the stage widens.
    Paranoid settings turn lat_13 and q into races in the stage, while
    the check passes every endpoint."""
    report = CbvCampaign(make_bundle(
        tech, pessimism=PessimismSettings.paranoid())).run()
    assert not report.timing.setup_violations
    assert _stage_flags(report) == ["lat_13", "q"]
    verdicts = _check_verdicts(report)
    assert verdicts["lat_13"] is Severity.PASS
    assert verdicts["q"] is Severity.PASS
    assert set(verdicts.values()) == {Severity.PASS}


def test_cold_campaign_builds_two_timing_graphs_through_one_pipeline(
        tech, monkeypatch):
    """The check and the stage each build one graph, both through the
    pipeline module's ``build_timing_graph``."""
    built = []
    real = timing_pipeline.build_timing_graph

    def counting(design, calculator, **kwargs):
        built.append(calculator.pessimism)
        return real(design, calculator, **kwargs)

    monkeypatch.setattr(timing_pipeline, "build_timing_graph", counting)
    paranoid = PessimismSettings.paranoid()
    CbvCampaign(make_bundle(tech, pessimism=paranoid)).run()
    assert built == [PessimismSettings(), paranoid]


def test_render_report_contains_stages(tech):
    text = render_report(CbvCampaign(make_bundle(tech)).run())
    assert "CBV campaign: dp" in text
    assert "timing_verification" in text
    assert "designer queue" in text


def test_triage_queue_waivers():
    queue = DesignerQueue()
    queue.items.append(QueueItem(source="coupling", subject="n1",
                                 severity=Severity.VIOLATION, message="m"))
    queue.items.append(QueueItem(source="latch", subject="s1",
                                 severity=Severity.FILTERED, message="m"))
    assert not queue.tapeout_clean()
    with pytest.raises(ValueError):
        queue.waive("coupling", "n1", "   ")
    queue.waive("coupling", "n1", "shielded by routing plan rev B")
    assert queue.tapeout_clean()  # only FILTERED remains
    assert len(queue.open_items()) == 1
    with pytest.raises(KeyError):
        queue.waive("nosuch", "x", "reason")


def test_queue_priority_order():
    queue = DesignerQueue()
    queue.items.append(QueueItem("b_check", "s2", Severity.FILTERED, "m"))
    queue.items.append(QueueItem("a_check", "s1", Severity.VIOLATION, "m"))
    ordered = queue.open_items()
    assert ordered[0].severity is Severity.VIOLATION
