"""Checkpoint/resume acceptance tests.

The contract (DESIGN.md "Checkpoint contract"): a resumed campaign's
canonical report is byte-identical to a cold run's; corrupt blobs
degrade to re-execution with a ``checkpoint.corrupt`` trace event; and a
SIGKILL mid-battery loses at most the in-flight stage.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checks.registry import ALL_CHECKS
from repro.core.campaign import CbvCampaign, DesignBundle
from repro.core.report import report_to_json
from repro.core.stages import STAGES, FlowStage, StageStatus
from repro.netlist.builder import CellBuilder
from repro.process.technology import strongarm_technology
from repro.store import ArtifactStore, stage_keys
from repro.timing.clocking import TwoPhaseClock

HARNESS = Path(__file__).with_name("checkpoint_harness.py")
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_bundle(**overrides):
    b = CellBuilder("dp", ports=["a", "b", "c", "y", "q", "clk", "clk_b"])
    b.nand(["a", "b"], "n1")
    b.inverter("n1", "and_ab")
    b.nor(["and_ab", "c"], "y")
    b.transparent_latch("y", "q", "clk", "clk_b")
    defaults = dict(
        name="dp",
        cell=b.build(),
        technology=strongarm_technology(),
        clock=TwoPhaseClock(period_s=6.25e-9, non_overlap_s=0.1e-9),
        clock_hints=("clk", "clk_b"),
        rtl_intent={"y": lambda a, b, c: not ((a and b) or c)},
        rtl_inputs={"y": ("a", "b", "c")},
    )
    defaults.update(overrides)
    return DesignBundle(**defaults)


def canonical(report) -> str:
    return report_to_json(report, canonical=True)


def hits(report) -> list[str]:
    return [e.name for e in report.trace.events if e.event == "checkpoint.hit"]


# -- in-process resume ------------------------------------------------------


def test_resume_is_byte_identical_to_cold_run(tmp_path):
    cold = CbvCampaign(make_bundle()).run()
    store = ArtifactStore(tmp_path / "store")
    first = CbvCampaign(make_bundle()).run(store=store)
    resumed = CbvCampaign(make_bundle()).run(store=store)

    assert canonical(first) == canonical(cold)
    assert canonical(resumed) == canonical(cold)
    # every stage with a verdict replayed: all seven (logic has RTL intent)
    assert len(hits(resumed)) == 7
    assert store.counters()["store_corrupt"] == 0
    # a resumed run re-executes nothing, so it writes nothing
    assert not [e for e in resumed.trace.events
                if e.event == "checkpoint.write"]


def test_resume_restores_downstream_artifacts(tmp_path):
    """Replayed stages must leave the report as populated as execution
    would: flat netlist, recognized design, and timing report."""
    store = ArtifactStore(tmp_path / "store")
    CbvCampaign(make_bundle()).run(store=store)
    resumed = CbvCampaign(make_bundle()).run(store=store)
    assert resumed.flat is not None
    assert resumed.design is not None
    assert resumed.timing is not None
    assert resumed.ok()


def test_corrupt_checkpoint_degrades_to_rerun(tmp_path):
    bundle = make_bundle()
    store = ArtifactStore(tmp_path / "store")
    cold = CbvCampaign(bundle).run(store=store)

    # run() defaults checks=ALL_CHECKS; replicate for the circuit key
    keys = stage_keys(bundle, checks=ALL_CHECKS, timeout_s=None)
    blob = store._path(keys[FlowStage.CIRCUIT_VERIFICATION])
    raw = blob.read_bytes()
    blob.write_bytes(raw[: len(raw) // 2])  # torn write

    resumed = CbvCampaign(make_bundle()).run(store=store)
    corrupt = [e for e in resumed.trace.events
               if e.event == "checkpoint.corrupt"]
    assert corrupt and corrupt[0].name == "circuit_verification"
    assert list(store.quarantine_dir.iterdir())
    # the stage re-ran and re-checkpointed
    assert [e.name for e in resumed.trace.events
            if e.event == "checkpoint.write"] == ["circuit_verification"]
    assert canonical(resumed) == canonical(cold)


def test_skipped_stage_is_never_checkpointed(tmp_path):
    bundle = make_bundle(rtl_intent={}, rtl_inputs={})
    store = ArtifactStore(tmp_path / "store")
    CbvCampaign(bundle).run(store=store)
    resumed = CbvCampaign(make_bundle(rtl_intent={}, rtl_inputs={})).run(
        store=store)
    assert resumed.stage(FlowStage.LOGIC_VERIFICATION).status \
        is StageStatus.SKIPPED
    assert "logic_verification" not in hits(resumed)
    assert len(hits(resumed)) == 6


class CountingStore(ArtifactStore):
    """An artifact store that records the key of every read."""

    def __init__(self, root):
        super().__init__(root)
        self.reads: list[str] = []

    def get(self, key: str):
        self.reads.append(key)
        return super().get(key)


def test_bundle_decided_skips_are_not_looked_up(tmp_path):
    """A wireload design without RTL intent or vectors skips layout and
    logic verification whatever the store holds, so a resumed run never
    reads their keys -- and still reports exactly what a cold run does."""
    bundle = make_bundle(rtl_intent={}, rtl_inputs={}, use_layout=False)
    cold = CbvCampaign(bundle).run()
    CbvCampaign(bundle).run(store=ArtifactStore(tmp_path / "store"))
    store = CountingStore(tmp_path / "store")
    resumed = CbvCampaign(bundle).run(store=store)
    keys = stage_keys(bundle, checks=ALL_CHECKS, timeout_s=None)
    skipped = {keys[FlowStage.LAYOUT], keys[FlowStage.LOGIC_VERIFICATION]}
    assert len(store.reads) == 5
    assert not skipped & set(store.reads)
    assert len(hits(resumed)) == 5
    for flow in (FlowStage.LAYOUT, FlowStage.LOGIC_VERIFICATION):
        assert resumed.stage(flow).status is StageStatus.SKIPPED
    assert canonical(resumed) == canonical(cold)


# -- the stage table ----------------------------------------------------------


def test_stage_keys_cover_exactly_the_stage_table():
    keys = stage_keys(make_bundle(), checks=ALL_CHECKS, timeout_s=None)
    assert list(keys) == list(STAGES)
    assert len(set(keys.values())) == len(STAGES)


def test_checkpoints_keep_exactly_the_tabled_artifacts(tmp_path):
    bundle = make_bundle()
    store = ArtifactStore(tmp_path / "store")
    CbvCampaign(bundle).run(store=store)
    for flow, key in stage_keys(bundle, checks=ALL_CHECKS,
                                timeout_s=None).items():
        payload, _meta = store.get(key)
        assert set(payload["artifacts"]) == set(STAGES[flow].keeps), flow


@pytest.mark.parametrize("flow,overrides", [
    (FlowStage.LAYOUT, dict(use_layout=False)),
    (FlowStage.LOGIC_VERIFICATION, dict(rtl_intent={}, rtl_inputs={})),
])
def test_bundle_only_skip_is_a_skipped_stage_never_checkpointed(
        tmp_path, flow, overrides):
    bundle = make_bundle(**overrides)
    store = ArtifactStore(tmp_path / "store")
    report = CbvCampaign(bundle).run(store=store)
    events = [e for e in report.trace.events if e.name == flow.value]
    assert [e.event for e in events] == ["stage_start", "stage_end"]
    assert events[1].status == StageStatus.SKIPPED.value
    assert report.stage(flow).status is StageStatus.SKIPPED
    keys = stage_keys(bundle, checks=ALL_CHECKS, timeout_s=None)
    assert not store.has(keys[flow])
    assert len(report.trace.of("checkpoint.write")) == len(STAGES) - 1


def test_design_edit_invalidates_only_affected_stages(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    CbvCampaign(make_bundle()).run(store=store)

    cell = make_bundle().cell
    cell.transistors[0].w_um *= 2
    resumed = CbvCampaign(make_bundle(cell=cell)).run(store=store)
    # geometry is an input of every stage: nothing replays, all re-run
    assert hits(resumed) == []
    assert canonical(resumed) == canonical(
        CbvCampaign(make_bundle(cell=cell)).run())


# -- kill -9 mid-battery, then resume --------------------------------------


def run_harness(mode: str, store_dir, out_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    return subprocess.run(
        [sys.executable, str(HARNESS), mode, str(store_dir), str(out_path)],
        capture_output=True, text=True, env=env, timeout=300)


def test_sigkill_mid_battery_then_resume_matches_cold(tmp_path):
    store_dir = tmp_path / "store"

    killed = run_harness("kill", store_dir, tmp_path / "unused.json")
    assert killed.returncode == -signal.SIGKILL, killed.stdout + killed.stderr
    # the kill landed mid-battery: earlier stages checkpointed, the
    # battery's own stage did not
    survived = ArtifactStore(store_dir).keys()
    assert len(survived) >= 4

    resumed = run_harness("resume", store_dir, tmp_path / "resumed.json")
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    events = resumed.stdout.split()
    assert "checkpoint.hit" in events
    assert "checkpoint.corrupt" not in events

    cold = run_harness("cold", store_dir, tmp_path / "cold.json")
    assert cold.returncode == 0, cold.stdout + cold.stderr

    resumed_json = (tmp_path / "resumed.json").read_text()
    cold_json = (tmp_path / "cold.json").read_text()
    assert resumed_json == cold_json
