"""The scenario report: one campaign's rollup + its canonical JSON.

A :class:`ScenarioReport` is to a fuzz / Monte-Carlo campaign what
:class:`~repro.core.campaign.CbvReport` is to a design campaign, and it
honours the same contract: ``to_json(canonical=True)`` is a pure
function of the sample set, byte-identical whether the samples ran
serially, across 1/2/4 fleet workers, or through a kill-and-resume --
because

* the rollup merges shards by sample index (order-invariant,
  idempotent -- :mod:`repro.scenarios.rollup`);
* the trace is assembled by replaying shard event lists **in shard
  order** (contiguous index ranges, so shard order *is* index order,
  the same argument that makes the battery-shard merge exact), then
  serialized through :func:`repro.core.report.trace_to_dicts` with the
  same canonical stripping the campaign report uses.

The derived per-sample seeds ride in the ``scenario.sample`` event
counters and the per-sample metric rows, so the canonical report
answers "which sequence produced this row?" without re-deriving.
"""

from __future__ import annotations

import json

from repro.core.report import trace_to_dicts
from repro.core.trace import CampaignTrace
from repro.scenarios.rollup import ScenarioRollup
from repro.scenarios.spec import (
    FuzzSpec,
    MonteCarloSpec,
    ScenarioSpec,
    spec_fingerprint,
)


class ScenarioReport:
    """Rollup + trace of one scenario campaign."""

    def __init__(self, spec: ScenarioSpec, rollup: ScenarioRollup,
                 trace: CampaignTrace) -> None:
        self.spec = spec
        self.rollup = rollup
        self.trace = trace

    def complete(self) -> bool:
        return self.rollup.count() == self.spec.total_samples()

    def ok(self) -> bool:
        """Complete, and (for fuzz) free of mismatching samples."""
        if not self.complete():
            return False
        stats = self.rollup.stats()
        mismatches = stats.get("mismatches")
        return mismatches is None or mismatches["max"] == 0.0

    # -- serialization -------------------------------------------------------

    def to_dict(self, canonical: bool = False) -> dict:
        spec_fields = {k: getattr(self.spec, k)
                       for k in self.spec.__dataclass_fields__}
        return {
            "kind": self.spec.kind,
            "name": self.spec.name,
            "spec": dict(sorted(spec_fields.items())),
            "spec_fingerprint": spec_fingerprint(self.spec),
            "complete": self.complete(),
            "ok": self.ok(),
            "rollup": self.rollup.to_dict(),
            "trace": trace_to_dicts(self.trace, canonical),
        }

    def to_json(self, indent: int = 2, canonical: bool = False) -> str:
        return json.dumps(self.to_dict(canonical=canonical),
                          indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioReport":
        spec_cls = {"fuzz": FuzzSpec, "montecarlo": MonteCarloSpec}[
            data["kind"]]
        spec = spec_cls(**data["spec"])
        rollup = ScenarioRollup.from_dict(data.get("rollup", {}))
        trace = CampaignTrace.from_dicts(data.get("trace", []))
        return cls(spec, rollup, trace)


def check_scenario_shard(payload) -> None:
    """Raise unless ``payload`` has a scenario shard's shape.

    The validator every scenario-shard checkpoint read passes to
    :func:`repro.store.checkpoint.load_checkpoint`: the serial
    campaign's resume, the fleet's shard jobs and its rollup.
    """
    if (not isinstance(payload, dict)
            or not isinstance(payload.get("samples"), dict)
            or not isinstance(payload.get("events"), list)):
        raise ValueError("payload shape is not a scenario shard")


def sample_events(payload: dict) -> list[dict]:
    """The replayable ``scenario.sample`` slice of one shard payload."""
    return [e for e in payload.get("events", ())
            if e.get("event") == "scenario.sample"]


def finish_report(spec: ScenarioSpec, rollup: ScenarioRollup,
                  trace: CampaignTrace) -> ScenarioReport:
    """Seal a report: emits the ``campaign_end`` envelope event.

    Both assembly paths -- the serial :class:`ScenarioCampaign` and the
    fleet rollup job -- end through here, so their canonical traces
    close identically (no wall-clock on the envelope: the scenario
    trace is facts-only end to end).
    """
    report = ScenarioReport(spec, rollup, trace)
    trace.emit("campaign_end", name=spec.name,
               status="ok" if report.ok() else "needs-triage",
               counters={"samples": float(rollup.count())})
    return report


def assemble_report(spec: ScenarioSpec, payloads: list[dict],
                    trace: CampaignTrace | None = None) -> ScenarioReport:
    """Build the report from shard payloads, in shard order.

    ``payloads`` are :func:`repro.scenarios.runner.run_shard` dicts,
    ordered by shard index (= sample-index order).  Events are replayed
    into ``trace`` (a fresh one when None), restamped with its own
    clock/worker like every other replay path, so the assembled trace
    is identical no matter which processes recorded the originals.
    This is the fleet rollup's path; the serial
    :class:`~repro.scenarios.campaign.ScenarioCampaign` interleaves the
    same replay with its checkpoint events (which the canonical form
    strips), converging on byte-identical canonical JSON.
    """
    if trace is None:
        trace = CampaignTrace()
    trace.emit("campaign_start", name=spec.name)
    rollup = ScenarioRollup()
    for payload in payloads:
        for index, metrics in payload["samples"].items():
            rollup.add_sample(int(index), metrics)
        trace.replay(sample_events(payload))
    return finish_report(spec, rollup, trace)
