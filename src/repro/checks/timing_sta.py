"""Per-endpoint setup and race checking as a battery member.

Section 4.2's list of electrical checks and section 4.3's timing
verification are one workflow for the designer: everything lands in the
same triage queue.  This check runs the static timing verifier inside
the battery so each setup endpoint and each race constraint becomes one
:class:`~repro.checks.base.Finding` -- PASS endpoints are auto-cleared
by the designer-filter model, violations queue with slack metrics.

The check is a pure function of the shared context: it runs the one
timing pipeline (:func:`~repro.timing.driver.analyze_annotated`) on the
context's corners and clock, with default pessimism and no false paths,
so it shards like every other battery member: the fleet runs it in
whichever battery shard holds its registry slot, and the merged
findings are byte-identical to a serial run.  The flow's timing stage
runs the same pipeline under the bundle's rules (DESIGN.md, "One timing
pipeline").

It needs both delay corners; contexts built without a SLOW annotation
or without a clock (e.g. quick feasibility studies) skip it silently.
"""

from __future__ import annotations

from repro.checks.base import Check, CheckContext, Finding, Severity
from repro.timing.driver import analyze_annotated


class SetupRaceCheck(Check):
    """Static timing setup/race verification, one finding per endpoint."""

    name = "timing_setup_race"

    def run(self, ctx: CheckContext) -> list[Finding]:
        if ctx.clock is None or ctx.slow is None:
            return []
        report = analyze_annotated(ctx.design, ctx.fast, ctx.slow,
                                   ctx.clock).report

        findings: list[Finding] = []
        for path in report.critical_paths:
            severity = Severity.VIOLATION if path.violated() else Severity.PASS
            findings.append(self._finding(
                path.endpoint, severity,
                f"setup slack {path.slack_s * 1e12:.1f} ps, max arrival "
                f"{path.arrival_s * 1e12:.1f} ps "
                f"through {' -> '.join(path.nets[-4:])}",
                slack_s=path.slack_s,
                arrival_s=path.arrival_s,
            ))
        for race in report.races:
            findings.append(self._finding(
                race.constraint.net, Severity.VIOLATION,
                f"{race.constraint.kind.value} race: {race.note}",
                margin_s=race.margin_s,
            ))
        return findings
