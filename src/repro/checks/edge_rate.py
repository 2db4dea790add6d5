"""Edge rate and delay analysis for clocks and signals (section 4.2).

A slow edge on a clock smears every constraint referenced to it; a slow
edge on a data net burns crowbar current and is a coupling-noise victim.
The edge estimate is the driving path's on-resistance times the bounded
load (the same switched-RC model timing uses), with clock nets held to
the tighter limit.
"""

from __future__ import annotations

from repro.checks.base import Check, CheckContext, Finding, Severity
from repro.checks.helpers import device_map, device_resistances
from repro.recognition.gates import drive_pull_paths


class EdgeRateCheck(Check):
    name = "edge_rate"

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        devices = device_map(ctx.typical)
        settings = ctx.settings
        storage_nets = {n.net for n in ctx.design.storage}
        for classification in ctx.design.classifications:
            ccc = classification.ccc
            ron = None
            outputs = set(classification.gates) | set(classification.dynamic_nodes)
            for out in sorted(outputs):
                if out in storage_nets:
                    # Storage nodes are weakly held by design; their
                    # transitions come through write paths, which the
                    # writability check owns.
                    continue
                down, up = drive_pull_paths(ccc, out)
                dyn = classification.dynamic_nodes.get(out)
                if dyn is not None and dyn.keeper_devices:
                    # The keeper only holds; the edge is made by the
                    # precharge and evaluate paths.
                    down = down.where(avoid_devices=dyn.keeper_devices)
                    up = up.where(avoid_devices=dyn.keeper_devices)
                if not down and not up:
                    continue
                if ron is None:
                    ron = device_resistances(down.device_names, ctx.typical,
                                             devices)
                r_worst = max(down.sums(ron) + up.sums(ron))
                c_load = ctx.typical.load(out).total_max()
                edge = 2.2 * r_worst * c_load  # 10-90% of a single-pole RC
                is_clock = out in ctx.design.clocks
                limit = (settings.clock_edge_limit_s if is_clock
                         else settings.signal_edge_limit_s)
                if edge > limit:
                    severity = Severity.VIOLATION
                    message = (f"{'clock' if is_clock else 'signal'} edge "
                               f"{edge * 1e12:.0f} ps exceeds "
                               f"{limit * 1e12:.0f} ps limit")
                elif edge > 0.7 * limit:
                    severity = Severity.FILTERED
                    message = f"edge {edge * 1e12:.0f} ps near the limit"
                else:
                    severity = Severity.PASS
                    message = "edge rate healthy"
                findings.append(self._finding(out, severity, message,
                                              edge_s=edge, limit_s=limit))
        return findings
