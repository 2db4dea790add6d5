"""Check framework: findings, severities, and the designer-filter model.

Paper section 2.3: "For many verification questions, we do not have an
absolute answer.  Instead, we use CAD tools to filter the amount of
design the designer has to inspect.  These CAD tools use the circuit
recognition information along with other information (e.g., capacitance
and timing) to provide filtering of circuits that do not have a problem,
and reporting those circuits that might have a problem."

Severities model exactly that three-way split:

* ``PASS``     -- provably fine, never shown to the designer;
* ``FILTERED`` -- *might* have a problem; lands in the designer queue;
* ``VIOLATION`` -- provably (or near-provably) broken.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.extraction.annotate import AnnotatedDesign
from repro.layout.antenna_geom import AntennaGeometry
from repro.recognition.recognizer import RecognizedDesign
from repro.timing.clocking import TwoPhaseClock


class Severity(enum.Enum):
    PASS = "pass"
    FILTERED = "filtered"
    VIOLATION = "violation"


@dataclass
class Finding:
    """One check result about one subject (net or device)."""

    check: str
    subject: str
    severity: Severity
    message: str
    metrics: dict[str, float] = field(default_factory=dict)
    #: Free-form long-form context; the battery uses it for the full
    #: traceback of a synthesized crash finding.  Empty for ordinary
    #: findings, so serial/sharded byte-identity is unaffected.
    detail: str = ""

    def metric(self, name: str, default: float = 0.0) -> float:
        return self.metrics.get(name, default)

    def to_dict(self) -> dict:
        """JSON-ready form (checkpoint store, CI exports)."""
        out: dict = {
            "check": self.check,
            "subject": self.subject,
            "severity": self.severity.value,
            "message": self.message,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
        }
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """Exact inverse of :meth:`to_dict`."""
        return cls(
            check=str(data["check"]),
            subject=str(data["subject"]),
            severity=Severity(data["severity"]),
            message=str(data["message"]),
            metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
            detail=str(data.get("detail", "")),
        )


@dataclass
class CheckSettings:
    """Thresholds shared across the battery.

    Values are deliberately explicit rather than buried per check: the
    paper's methodology treats these as team-accepted design standards.
    """

    # Beta / sizing.
    beta_target: float = 2.0            # P/N strength ratio of a balanced gate
    beta_filter_band: float = 2.5       # x off target -> FILTERED
    beta_violation_band: float = 6.0    # x off target -> VIOLATION
    min_width_um: float = 0.4

    # Clock RC and edges.
    clock_rc_filter_s: float = 50e-12
    clock_rc_violation_s: float = 200e-12
    clock_edge_limit_s: float = 150e-12
    signal_edge_limit_s: float = 600e-12

    # Noise (coupling / charge sharing / leakage droop), as fractions of VDD.
    noise_margin_fraction: float = 0.25     # usable margin at a gate input
    coupling_filter_fraction: float = 0.10  # dynamic/storage victims
    coupling_static_fraction: float = 0.30  # static victims tolerate more

    # Writability.
    write_ratio_min: float = 2.0
    write_ratio_good: float = 3.0

    # Electromigration.
    em_statistical_fraction: float = 0.5  # of the absolute limit

    # Antenna.
    antenna_ratio_limit: float = 400.0
    antenna_ratio_filter: float = 200.0

    # Activity assumption for average-current style checks.
    default_activity: float = 0.15


@dataclass
class CheckContext:
    """Everything a check may consult.

    ``typical`` / ``fast`` are annotated designs (fast = leakage/EM worst
    corner).  ``slow`` is the max-delay corner; it is optional because
    only the timing setup/race check consumes it (the check no-ops
    without it).  ``clock`` provides hold-time windows for droop checks;
    ``antenna`` carries layout-derived geometry when available.
    """

    design: RecognizedDesign
    typical: AnnotatedDesign
    fast: AnnotatedDesign
    slow: AnnotatedDesign | None = None
    clock: TwoPhaseClock | None = None
    antenna: list[AntennaGeometry] | None = None
    settings: CheckSettings = field(default_factory=CheckSettings)
    #: Optional IR-drop map for the supply-difference check: net -> supply
    #: region name, and region -> voltage offset from nominal.
    supply_regions: dict[str, str] = field(default_factory=dict)
    supply_offsets_v: dict[str, float] = field(default_factory=dict)
    #: Session :class:`repro.perf.DesignCache` that produced this context,
    #: if any: a campaign passes its own, a fleet battery shard its
    #: design session's.  Checks may use it for derived artifacts (e.g.
    #: the other corner); contexts built without one are just as valid,
    #: so treat it as an optimisation, never a dependency.
    cache: object | None = field(default=None, repr=False, compare=False)

    @property
    def technology(self):
        return self.typical.technology


class Check:
    """Base class: a named analysis producing findings."""

    name = "base"

    def run(self, ctx: CheckContext) -> list[Finding]:
        raise NotImplementedError

    def _finding(self, subject: str, severity: Severity, message: str,
                 **metrics: float) -> Finding:
        return Finding(check=self.name, subject=subject, severity=severity,
                       message=message, metrics=dict(metrics))
