"""Flow stages, their results, and the stage table (the boxes of Figure 2).

:data:`STAGES` declares each runnable stage once: the fingerprint
components keying its checkpoint, the artifacts it cannot run without,
and the artifacts its checkpoint keeps.  The campaign
(:meth:`repro.core.campaign.CbvCampaign.run`), the checkpoint keys
(:mod:`repro.store.checkpoint`) and the fleet worker all read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class FlowStage(enum.Enum):
    """The ALPHA design-flow stages, in Figure-2 order."""

    BEHAVIORAL_RTL = "behavioral_rtl"
    SCHEMATIC = "schematic"
    RECOGNITION = "recognition"
    LAYOUT = "layout"
    EXTRACTION = "extraction"
    LOGIC_VERIFICATION = "logic_verification"
    CIRCUIT_VERIFICATION = "circuit_verification"
    TIMING_VERIFICATION = "timing_verification"


class StageStatus(enum.Enum):
    PASS = "pass"
    ATTENTION = "attention"  # filtered items awaiting designer review
    FAIL = "fail"
    SKIPPED = "skipped"
    #: The stage itself crashed (tool fault, not a design fault).  The
    #: campaign records the traceback and keeps running whatever later
    #: stages do not depend on this one's artifacts; ``ok()`` is False.
    ERROR = "error"


@dataclass
class StageResult:
    """Outcome of one flow stage."""

    stage: FlowStage
    status: StageStatus
    summary: str
    metrics: dict[str, float] = field(default_factory=dict)
    details: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return self.status in (StageStatus.PASS, StageStatus.ATTENTION,
                               StageStatus.SKIPPED)

    def to_dict(self) -> dict:
        """JSON-ready form (report export, checkpoint metadata)."""
        return {
            "stage": self.stage.value,
            "status": self.status.value,
            "summary": self.summary,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "details": [str(d) for d in self.details],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageResult":
        """Exact inverse of :meth:`to_dict` (any status, ERROR tracebacks
        included -- they ride in ``details``)."""
        return cls(
            stage=FlowStage(data["stage"]),
            status=StageStatus(data["status"]),
            summary=str(data["summary"]),
            metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
            details=[str(d) for d in data.get("details", [])],
        )


@dataclass(frozen=True)
class StageSpec:
    """What one runnable stage reads, needs and keeps."""

    flow: FlowStage
    #: Fingerprint components its checkpoint key covers (see
    #: :func:`repro.store.checkpoint.design_fingerprint`).  Listing an
    #: extra one only forfeits a replay; omitting a real input would
    #: replay stale results, so when in doubt a component is listed.
    inputs: tuple[str, ...]
    #: Artifacts it cannot run without: a missing one skips the stage.
    requires: tuple[str, ...] = ()
    #: Artifacts its checkpoint stores and a replay restores.
    keeps: tuple[str, ...] = ()


#: Every stage :meth:`CbvCampaign.run <repro.core.campaign.CbvCampaign.run>`
#: executes, in run order.  ``circuit_verification`` also keys on the
#: battery invocation (check list and timeout) -- see
#: :func:`repro.store.checkpoint.stage_key`.
STAGES: dict[FlowStage, StageSpec] = {spec.flow: spec for spec in (
    StageSpec(FlowStage.SCHEMATIC, ("topology", "geometry"),
              keeps=("flat",)),
    StageSpec(FlowStage.RECOGNITION,
              ("topology", "geometry", "clock_hints"),
              requires=("flat",), keeps=("design",)),
    StageSpec(FlowStage.LAYOUT,
              ("topology", "geometry", "technology", "mode"),
              requires=("flat",), keeps=("layout_parasitics", "antenna")),
    StageSpec(FlowStage.EXTRACTION,
              ("topology", "geometry", "technology", "mode"),
              requires=("flat",), keeps=("parasitics",)),
    StageSpec(FlowStage.LOGIC_VERIFICATION,
              ("topology", "geometry", "clock_hints", "rtl", "functional"),
              requires=("design", "flat")),
    StageSpec(FlowStage.CIRCUIT_VERIFICATION,
              ("topology", "geometry", "technology", "mode", "clock",
               "clock_hints", "settings"),
              requires=("flat", "design", "parasitics"), keeps=("battery",)),
    StageSpec(FlowStage.TIMING_VERIFICATION,
              ("topology", "geometry", "technology", "mode", "clock",
               "clock_hints", "pessimism"),
              requires=("design", "ctx"), keeps=("timing",)),
)}
