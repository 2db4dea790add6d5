"""The check registry and battery runner.

``run_battery`` executes every registered check (the complete section-4.2
list) over one context and returns the findings plus the triage queues.

The battery runs serially, in registry order.  Spreading it over
processes -- the paper's farm of "several hundred workstations ... used
for the verification effort" -- is :mod:`repro.fleet`'s job: it runs
contiguous slices of the registry as shard jobs and joins them with
:func:`repro.fleet.merge.merge_shard_batteries`, which reproduces this
runner's output exactly because each slice runs here, serially.

Fault isolation
---------------
No check may kill the battery.  A check that raises or exceeds its
``timeout_s`` budget is converted into a synthesized
``Severity.VIOLATION`` crash :class:`Finding` (subject ``check:<name>``,
traceback in ``Finding.detail``) occupying the crashed check's registry
slot, so findings order stays deterministic.  A check that kills its
whole process is the fleet's case: its shard is retried, then
quarantined as poison (see :class:`repro.fleet.merge.PoisonShards`).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.checks.antenna import AntennaCheck
from repro.checks.base import Check, CheckContext, Finding, Severity
from repro.checks.beta import BetaRatioCheck, DeviceSizeCheck
from repro.checks.charge_share import ChargeShareCheck
from repro.checks.clock_rc import ClockRcCheck, ClockSkewCheck
from repro.checks.coupling import CouplingCheck
from repro.checks.edge_rate import EdgeRateCheck
from repro.checks.electromigration import ElectromigrationCheck
from repro.checks.filters import TriageQueues, filter_findings
from repro.checks.hot_carrier import HotCarrierCheck, TddbCheck
from repro.checks.latch import LatchCheck
from repro.checks.supply import AlphaParticleCheck, SupplyDifferenceCheck
from repro.checks.leakage import DynamicLeakageCheck
from repro.checks.timing_sta import SetupRaceCheck
from repro.checks.writability import WritabilityCheck

#: The full section-4.2 battery, in the paper's own listing order.
ALL_CHECKS: tuple[type[Check], ...] = (
    BetaRatioCheck,
    DeviceSizeCheck,
    ClockRcCheck,
    ClockSkewCheck,
    EdgeRateCheck,
    LatchCheck,
    CouplingCheck,
    ChargeShareCheck,
    DynamicLeakageCheck,
    WritabilityCheck,
    ElectromigrationCheck,
    AntennaCheck,
    HotCarrierCheck,
    TddbCheck,
    SupplyDifferenceCheck,
    AlphaParticleCheck,
    # Timing verification joins the battery last: per-endpoint setup and
    # race findings flow into the same designer queue as the electrical
    # checks (it no-ops on contexts without a clock + SLOW corner).
    SetupRaceCheck,
)


def crash_finding(name: str, kind: str, message: str, detail: str = "",
                  seconds: float = 0.0) -> Finding:
    """A synthesized VIOLATION recording that a check itself failed.

    ``kind`` is ``exception`` or ``timeout``; the crash lands in the
    designer queue like any other violation, so a broken tool can never
    silently pass a design.
    """
    return Finding(
        check=name,
        subject=f"check:{name}",
        severity=Severity.VIOLATION,
        message=f"check crashed ({kind}): {message}",
        metrics={"crash": 1.0, "seconds": float(seconds)},
        detail=detail,
    )


@dataclass
class _Row:
    """One check's outcome, crash or not, in registry order."""

    name: str
    findings: list[Finding]
    seconds: float
    crash: str | None = None  # traceback / detail when the check crashed


@dataclass
class BatteryResult:
    """Outcome of one full battery run."""

    findings: list[Finding]
    queues: TriageQueues
    per_check: dict[str, list[Finding]]
    #: Wall-clock seconds per check class name, in run order.
    per_check_seconds: dict[str, float] = field(default_factory=dict)
    #: Check name -> crash detail (traceback / diagnosis) for every check
    #: that raised or timed out.  Empty on a clean run.
    crashes: dict[str, str] = field(default_factory=dict)

    def of_check(self, name: str) -> list[Finding]:
        return self.per_check.get(name, [])

    def total_seconds(self) -> float:
        return sum(self.per_check_seconds.values())

    def to_dict(self) -> dict:
        """JSON-ready form; the checkpoint store persists exactly this.

        Only the findings stream, the crash record, and the per-check
        wall clock are primary data -- ``queues`` and ``per_check`` are
        derived and rebuilt on load (see :meth:`from_dict`), so the
        serialized form cannot drift out of sync with them.
        """
        return {
            "findings": [f.to_dict() for f in self.findings],
            "per_check_seconds": {k: float(v)
                                  for k, v in self.per_check_seconds.items()},
            "crashes": dict(self.crashes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatteryResult":
        """Rebuild a :class:`BatteryResult`, re-deriving the triage split."""
        findings = [Finding.from_dict(d) for d in data.get("findings", [])]
        # Seed from the per-check clock so checks that produced zero
        # findings keep their (empty) slot, exactly as run_battery built it.
        per_check: dict[str, list[Finding]] = {
            str(name): [] for name in data.get("per_check_seconds", {})}
        for f in findings:
            per_check.setdefault(f.check, []).append(f)
        return cls(
            findings=findings,
            queues=filter_findings(findings),
            per_check=per_check,
            per_check_seconds={k: float(v) for k, v in
                               data.get("per_check_seconds", {}).items()},
            crashes={str(k): str(v)
                     for k, v in data.get("crashes", {}).items()},
        )


def _exception_row(name: str, exc: Exception, detail: str,
                   seconds: float) -> _Row:
    finding = crash_finding(name, "exception", f"{type(exc).__name__}: {exc}",
                            detail, seconds)
    return _Row(name, [finding], seconds, detail)


def _guarded_run(check_cls: type[Check], ctx: CheckContext,
                 timeout_s: float | None) -> _Row:
    """Run one check; crashes and timeouts become rows."""
    check = check_cls()
    name = check.name
    start = time.perf_counter()
    if timeout_s is None:
        try:
            produced = check.run(ctx)
        except Exception as exc:  # noqa: BLE001 -- isolation is the point
            return _exception_row(name, exc, traceback.format_exc(),
                                  time.perf_counter() - start)
        return _Row(name, produced, time.perf_counter() - start)

    # With a budget, the check runs on a daemon thread we can abandon; a
    # hung check costs one leaked (idle-after-wakeup) thread, not the run.
    box: dict = {}

    def target() -> None:
        try:
            box["findings"] = check.run(ctx)
        except Exception as exc:  # noqa: BLE001 -- isolation is the point
            box["exc"] = exc
            box["detail"] = traceback.format_exc()

    worker = threading.Thread(target=target, daemon=True,
                              name=f"battery-{name}")
    worker.start()
    worker.join(timeout_s)
    seconds = time.perf_counter() - start
    if worker.is_alive():
        detail = f"check {name!r} exceeded its {timeout_s:.3g} s budget"
        finding = crash_finding(name, "timeout",
                                f"timed out after {timeout_s:.3g} s",
                                detail, timeout_s)
        return _Row(name, [finding], timeout_s, detail)
    if "exc" in box:
        return _exception_row(name, box["exc"], box["detail"], seconds)
    return _Row(name, box.get("findings", []), seconds)


def run_battery(
    ctx: CheckContext,
    checks: tuple[type[Check], ...] = ALL_CHECKS,
    timeout_s: float | None = None,
    trace=None,
) -> BatteryResult:
    """Run the battery serially; order follows the registry.

    ``timeout_s`` bounds each check's wall-clock.  A check that raises or
    times out becomes a VIOLATION crash finding (see
    :func:`crash_finding`) -- the battery itself never raises for a
    misbehaving check.  ``trace`` is an optional
    :class:`repro.core.trace.CampaignTrace` receiving check start/stop
    and crash events.
    """
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    if trace is not None:
        trace.emit("battery_start", counters={
            "checks": float(len(checks)), "workers": 1.0})

    findings: list[Finding] = []
    per_check: dict[str, list[Finding]] = {}
    per_check_seconds: dict[str, float] = {}
    crashes: dict[str, str] = {}
    for check_cls in checks:
        if trace is not None:
            trace.emit("check_start", name=check_cls.name)
        row = _guarded_run(check_cls, ctx, timeout_s)
        if trace is not None:
            if row.crash:
                trace.emit("check_crash", name=row.name, wall_s=row.seconds,
                           detail=row.crash)
            trace.emit("check_end", name=row.name, wall_s=row.seconds,
                       status="crash" if row.crash else "ok",
                       counters={"findings": float(len(row.findings))})
        findings.extend(row.findings)
        per_check.setdefault(row.name, []).extend(row.findings)
        per_check_seconds[row.name] = (
            per_check_seconds.get(row.name, 0.0) + row.seconds)
        if row.crash:
            crashes[row.name] = row.crash
    if trace is not None:
        trace.emit("battery_end",
                   wall_s=sum(per_check_seconds.values()),
                   counters={"findings": float(len(findings)),
                             "crashes": float(len(crashes))})
    return BatteryResult(
        findings=findings,
        queues=filter_findings(findings),
        per_check=per_check,
        per_check_seconds=per_check_seconds,
        crashes=crashes,
    )
