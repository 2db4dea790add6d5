"""State-element writability and noise-margin analysis (section 4.2).

A static storage node is held by feedback; writing it means the write
path must *overpower* that feedback.  The check compares conductances:

    write_ratio = G(write path, all write devices on)
                / G(strongest feedback path holding the old value)

Below 1.0 the write simply fails (VIOLATION); between 1.0 and the team
minimum it is marginal across corners (VIOLATION too -- silicon will
find the bad corner); within the "good" band it is FILTERED for a
designer look; above that it passes.
"""

from __future__ import annotations

from repro.checks.base import Check, CheckContext, Finding, Severity
from repro.checks.helpers import device_map, device_resistances
from repro.recognition.conduction import conduction_paths


class WritabilityCheck(Check):
    name = "writability"

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        devices = device_map(ctx.typical)
        settings = ctx.settings
        cccs_by_net = {}
        rons: dict[int, list[float]] = {}  # by CCC: its nodes share it
        for classification in ctx.design.classifications:
            for net in classification.ccc.channel_nets:
                cccs_by_net[net] = classification.ccc

        for node in ctx.design.storage:
            if not node.static or not node.write_devices:
                continue
            ccc = cccs_by_net.get(node.net)
            if ccc is None:
                continue
            write_set = set(node.write_devices)
            partner_set = {node.net}
            if node.partner:
                partner_set.add(node.partner)
            down = conduction_paths(ccc, node.net, "gnd")
            up = conduction_paths(ccc, node.net, "vdd")

            def feedback(paths) -> list:
                # A restoring path is gated by the loop itself (the
                # partner node or the node's own derived value).
                sides = [paths.where(through=partner_set)]
                if node.partner is None:
                    # Without a named partner, fall back to "does not
                    # use the write devices".
                    sides.append(paths.where(avoid_devices=write_set))
                return [s for s in sides if s]

            feedback_down = feedback(down)
            feedback_up = feedback(up)
            write_paths = [
                s for s in (
                    p.where(using=write_set, avoid_gates=partner_set)
                    for p in (down, up, *_port_paths(ctx, ccc, node.net)))
                if s
            ]
            if (not feedback_down and not feedback_up) or not write_paths:
                continue

            ron = rons.get(id(ccc))
            if ron is None:
                ron = rons[id(ccc)] = device_resistances(
                    down.device_names, ctx.typical, devices)

            def conductance(sets) -> float:
                if not sets:
                    return 0.0
                return max(1.0 / r for s in sets for r in s.sums(ron))

            g_down = conductance(feedback_down)
            g_up = conductance(feedback_up)
            # A differential write flips the cell through its *weaker*
            # held side; with feedback on one side only, that side is it.
            sides = [g for g in (g_down, g_up) if g > 0]
            g_feedback = min(sides)
            g_write = conductance(write_paths)
            ratio = g_write / g_feedback if g_feedback > 0 else float("inf")
            if ratio < settings.write_ratio_min:
                severity = Severity.VIOLATION
                message = (f"write path only {ratio:.2f}x the feedback; the "
                           f"cell may not flip across corners")
            elif ratio < settings.write_ratio_good:
                severity = Severity.FILTERED
                message = f"write ratio {ratio:.2f}x is workable but thin"
            else:
                severity = Severity.PASS
                message = f"write overpowers feedback ({ratio:.1f}x)"
            findings.append(self._finding(
                node.net, severity, message, write_ratio=ratio,
            ))
        return findings


def _port_paths(ctx: CheckContext, ccc, net: str):
    """Path sets from the storage node to externally driven (port) nets
    -- the data side of an access/pass write."""
    flat_nets = ctx.typical.flat.nets
    out = []
    for other in sorted(ccc.channel_nets):
        if other == net:
            continue
        flat_net = flat_nets.get(other)
        if flat_net is not None and flat_net.is_port:
            out.append(conduction_paths(ccc, net, other))
    return out
