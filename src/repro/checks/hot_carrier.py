"""Hot-carrier and time-dependent dielectric breakdown checks (§4.2).

* **TDDB** -- the gate-oxide field at the worst-case (fast-corner,
  high-VDD) supply must stay under the technology's lifetime field
  limit.  One number per design, since every minimum-oxide device sees
  the same field; devices with deliberately thicker effective stress
  (channel-lengthened) are not distinguished at this abstraction.
* **HCI** -- NMOS devices that repeatedly switch with full VDD across
  the channel inject hot carriers.  The check flags N devices whose
  drain-source can see more than the technology's HCI voltage limit;
  devices inside stacks see divided voltages and are derated by stack
  depth (topological context again).
"""

from __future__ import annotations

from repro.checks.base import Check, CheckContext, Finding, Severity
from repro.recognition.conduction import conduction_paths


class TddbCheck(Check):
    name = "tddb"

    def run(self, ctx: CheckContext) -> list[Finding]:
        tech = ctx.technology
        vdd_max = tech.vdd_at(ctx.fast.corner)
        field = tech.oxide_field_mv_per_cm(vdd_max)
        limit = tech.tddb_max_field_mv_per_cm
        if field > limit:
            severity = Severity.VIOLATION
            message = (f"oxide field {field:.2f} MV/cm above the "
                       f"{limit:.2f} MV/cm lifetime limit at the fast corner")
        elif field > 0.9 * limit:
            severity = Severity.FILTERED
            message = f"oxide field {field:.2f} MV/cm within 10% of limit"
        else:
            severity = Severity.PASS
            message = f"oxide field {field:.2f} MV/cm comfortable"
        return [self._finding("oxide", severity, message,
                              field_mv_cm=field, limit_mv_cm=limit)]


class HotCarrierCheck(Check):
    name = "hot_carrier"

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        tech = ctx.technology
        limit = tech.hci_max_vds_v
        if limit is None:
            return findings
        vdd_max = tech.vdd_at(ctx.fast.corner)
        for classification in ctx.design.classifications:
            ccc = classification.ccc
            # Stack depth: the shortest pull-down path through a device.
            depths: dict[str, int] = {}
            for out in (ccc.output_nets or ccc.channel_nets):
                down = conduction_paths(ccc, out, "gnd")
                for name, d in down.device_depths().items():
                    if d < depths.get(name, d + 1):
                        depths[name] = d
            for t in ccc.nmos():
                depth = depths.get(t.name)
                if depth is None:
                    continue
                vds_worst = vdd_max / depth
                if vds_worst > limit:
                    findings.append(self._finding(
                        t.name, Severity.VIOLATION,
                        f"worst Vds {vds_worst:.2f} V above the HCI limit "
                        f"{limit:.2f} V; lengthen or stack the device",
                        vds_v=vds_worst,
                    ))
                elif vds_worst > 0.9 * limit:
                    findings.append(self._finding(
                        t.name, Severity.FILTERED,
                        f"worst Vds {vds_worst:.2f} V within 10% of the HCI "
                        f"limit",
                        vds_v=vds_worst,
                    ))
                else:
                    findings.append(self._finding(
                        t.name, Severity.PASS, "HCI stress acceptable",
                        vds_v=vds_worst,
                    ))
        return findings
