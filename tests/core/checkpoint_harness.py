"""Subprocess harness for the kill-and-resume acceptance test.

Run as ``python checkpoint_harness.py <mode> <store_dir> <out_path>``:

``kill``
    Run the campaign against ``store_dir`` with a hostile check appended
    that SIGKILLs the process mid-battery -- after every earlier stage
    has durably checkpointed, before the circuit stage can.  The process
    therefore never exits normally (the driver asserts on the -9).
``resume``
    Resume from ``store_dir`` with the *normal* check list, write the
    canonical report JSON to ``out_path``, and print one trace-event
    name per stdout line.
``cold``
    Same design, no store at all -- the reference run.

The design, clocks, and RTL intent live here (module level) so all
three subprocess invocations hash identical lambda code objects.
"""

import os
import signal
import sys

from repro.checks.base import Check
from repro.checks.registry import ALL_CHECKS
from repro.core.campaign import CbvCampaign, DesignBundle
from repro.core.report import report_to_json
from repro.netlist.builder import CellBuilder
from repro.process.technology import strongarm_technology
from repro.store import ArtifactStore
from repro.timing.clocking import TwoPhaseClock


def make_bundle() -> DesignBundle:
    b = CellBuilder("dp", ports=["a", "b", "c", "y", "q", "clk", "clk_b"])
    b.nand(["a", "b"], "n1")
    b.inverter("n1", "and_ab")
    b.nor(["and_ab", "c"], "y")
    b.transparent_latch("y", "q", "clk", "clk_b")
    return DesignBundle(
        name="dp",
        cell=b.build(),
        technology=strongarm_technology(),
        clock=TwoPhaseClock(period_s=6.25e-9, non_overlap_s=0.1e-9),
        clock_hints=("clk", "clk_b"),
        rtl_intent={"y": lambda a, b, c: not ((a and b) or c)},
        rtl_inputs={"y": ("a", "b", "c")},
    )


class KillerCheck(Check):
    """Simulates a machine crash partway through the check battery."""

    name = "killer"

    def run(self, ctx):
        os.kill(os.getpid(), signal.SIGKILL)


def main() -> int:
    mode, store_dir, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
    bundle = make_bundle()
    if mode == "kill":
        store = ArtifactStore(store_dir)
        # killer last: the battery genuinely starts before the lights go out
        CbvCampaign(bundle).run(store=store,
                                checks=ALL_CHECKS + (KillerCheck,))
        print("survived a SIGKILL?!")
        return 3
    if mode == "resume":
        report = CbvCampaign(bundle).run(store=ArtifactStore(store_dir))
    elif mode == "cold":
        report = CbvCampaign(bundle).run()
    else:
        print(f"unknown mode {mode!r}")
        return 2
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report, canonical=True))
    for event in report.trace.events:
        print(event.event)
    return 0


if __name__ == "__main__":
    sys.exit(main())
