"""Kill-and-resume smoke: crash a seed campaign, resume, demand identity.

For each seed design (the same bundles ``trace_report.py`` runs):

1. spawn a child process that runs the campaign against
   ``benchmarks/RESUME_store/<design>`` with a hostile check appended
   that SIGKILLs the process mid-battery;
2. confirm the child actually died by signal, then **resume** from the
   surviving store in this process;
3. run the same design cold (no store) and compare the canonical report
   JSON byte-for-byte.

The script exits non-zero if the resumed report differs from the cold
one, if any ``checkpoint.corrupt`` event fires, or if the child process
failed to die the way a power cut would.  CI uploads the store directory
itself as an artifact so a failure can be post-mortemed offline.

Usage::

    PYTHONPATH=src python benchmarks/resume_report.py
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

from trace_report import adder_bundle, alpha_slice_bundle

from repro.checks.base import Check
from repro.checks.registry import ALL_CHECKS
from repro.core.campaign import CbvCampaign
from repro.core.report import report_to_json
from repro.process.technology import strongarm_technology
from repro.store import ArtifactStore

STORE_ROOT = pathlib.Path(__file__).parent / "RESUME_store"
OUT_PATH = pathlib.Path(__file__).parent / "RESUME_report.json"

BUNDLES = {
    "alpha_slice": alpha_slice_bundle,
    "adder8": adder_bundle,
}


class KillerCheck(Check):
    """The power cut: SIGKILL the whole process from inside the battery."""

    name = "killer"

    def run(self, ctx):
        os.kill(os.getpid(), signal.SIGKILL)


def child_kill_run(design: str, store_dir: pathlib.Path) -> None:
    bundle = BUNDLES[design](strongarm_technology())
    CbvCampaign(bundle).run(store=ArtifactStore(store_dir),
                            checks=ALL_CHECKS + (KillerCheck,))
    raise SystemExit("campaign survived a SIGKILL check")


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child-kill":
        child_kill_run(sys.argv[2], pathlib.Path(sys.argv[3]))
        return 3  # unreachable

    shutil.rmtree(STORE_ROOT, ignore_errors=True)
    technology = strongarm_technology()
    summary: dict[str, dict] = {}
    failures: list[str] = []

    for design, factory in BUNDLES.items():
        store_dir = STORE_ROOT / design
        child = subprocess.run(
            [sys.executable, __file__, "--child-kill", design,
             str(store_dir)],
            capture_output=True, text=True, timeout=600)
        if child.returncode != -signal.SIGKILL:
            failures.append(
                f"{design}: kill child exited {child.returncode}, expected "
                f"SIGKILL\n{child.stdout}{child.stderr}")
            continue

        store = ArtifactStore(store_dir)
        checkpointed = len(store.keys())
        resumed = CbvCampaign(factory(technology)).run(store=store)
        cold = CbvCampaign(factory(technology)).run()

        corrupt = [e.to_dict() for e in resumed.trace.events
                   if e.event == "checkpoint.corrupt"]
        hits = sum(1 for e in resumed.trace.events
                   if e.event == "checkpoint.hit")
        identical = (report_to_json(resumed, canonical=True)
                     == report_to_json(cold, canonical=True))
        summary[design] = {
            "checkpoints_surviving_kill": checkpointed,
            "replayed_stages": hits,
            "corrupt_events": corrupt,
            "resumed_report_identical_to_cold": identical,
            "store_counters": store.counters(),
        }
        print(f"{design}: {checkpointed} checkpoint(s) survived the kill, "
              f"{hits} stage(s) replayed, identical={identical}")
        if corrupt:
            failures.append(f"{design}: checkpoint.corrupt fired: {corrupt}")
        if not identical:
            failures.append(f"{design}: resumed report differs from cold run")
        if hits == 0:
            failures.append(f"{design}: resume replayed nothing")

    OUT_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True),
                        encoding="utf-8")
    print(f"wrote {OUT_PATH.name}")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("kill-and-resume smoke clean on all seed designs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
