"""Transistor configuration analysis: beta ratio and device sizes.

Section 4.2: "Transistor configuration analysis -- Beta ratio and device
size checks of all complementary and ratioed structures."

A complementary gate whose pull-up / pull-down strength ratio strays far
from the team's target switches asymmetrically: its threshold moves
toward a rail, eating noise margin and skewing delays.  Full custom
*allows* deliberate skews (that is the point of per-instance sizing), so
moderate deviations are FILTERED for inspection rather than failed.
"""

from __future__ import annotations

from repro.checks.base import Check, CheckContext, Finding, Severity
from repro.checks.helpers import device_map, device_resistances, pull_paths


class BetaRatioCheck(Check):
    name = "beta_ratio"

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        devices = device_map(ctx.typical)
        settings = ctx.settings
        for classification in ctx.design.classifications:
            ron = None
            for out in classification.gates:
                down, up = pull_paths(classification.ccc, out)
                if not down or not up:
                    continue
                if ron is None:
                    ron = device_resistances(down.device_names, ctx.typical,
                                             devices)
                # Each path's resistance: its devices' added in path order.
                r_down = min(down.sums(ron))
                r_up = min(up.sums(ron))
                if r_up <= 0 or r_down <= 0:
                    continue
                # Strength ratio normalized to the target: 1.0 = balanced.
                ratio = (r_down / r_up)
                deviation = max(ratio, 1.0 / ratio)
                if deviation >= settings.beta_violation_band:
                    severity = Severity.VIOLATION
                    message = (f"pull networks differ by {deviation:.1f}x; "
                               f"switching threshold collapsed toward a rail")
                elif deviation >= settings.beta_filter_band:
                    severity = Severity.FILTERED
                    message = (f"{deviation:.1f}x skewed gate; confirm the "
                               f"skew is intentional")
                else:
                    severity = Severity.PASS
                    message = "pull networks balanced"
                findings.append(self._finding(
                    out, severity, message,
                    deviation=deviation, r_up=r_up, r_down=r_down,
                ))
        return findings


class DeviceSizeCheck(Check):
    name = "device_size"

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        min_w = ctx.settings.min_width_um
        for t in ctx.typical.flat.transistors:
            if t.w_um < min_w:
                findings.append(self._finding(
                    t.name, Severity.VIOLATION,
                    f"width {t.w_um:.2f} um below manufacturable minimum "
                    f"{min_w:.2f} um",
                    width=t.w_um,
                ))
            else:
                findings.append(self._finding(
                    t.name, Severity.PASS, "width legal", width=t.w_um))
        return findings
