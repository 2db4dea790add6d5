"""Whole-campaign bench: one cold layout campaign per chip scale.

For each scale, a child process of its own runs
``CbvCampaign(chip_bundle(N, 0, True)).run(cache=DesignCache())`` --
layout mode, the default battery and perfbench's seeded switch-level
vectors (``perfbench/designs.py``, imported read-only) -- so one
scale's high-water mark cannot hide the next.  Per scale it records

* the campaign's wall time and each stage's and each check's
  ``wall_s``, read from the campaign trace (``stage_end`` and
  ``check_end`` events);
* the child's peak RSS (``VmHWM``, MB);
* the canonical digest: the first 16 hex digits of the SHA-256 of
  ``report_to_json(report, canonical=True)``;
* ``commit`` (``git describe --always --dirty`` of the checkout run)
  and ``cpu_count``.

The reference digests were recorded on Python 3.11: from 3.12 on,
``sum()`` of floats is compensated, which can move a digest.

Rows merge into ``benchmarks/BENCH_campaign.json`` by (scale, commit):
a run replaces only the rows it measured, so a 1k smoke never replaces
a 25k row, and rows of other commits stay for comparison.  The file
also keeps one reference digest per scale; a run whose digest differs
from it fails (exit 1) and records nothing, unless ``--record-digests``
re-records it on purpose.

``--tree DIR`` runs the children on another checkout's ``src/`` and
``perfbench/designs.py`` (a ``git clone`` of the parent commit, say),
stamped with that checkout's commit, for before/after rows from one
script.  ``--summary`` prints the committed rows of the scales run as a
markdown table.

Usage::

    PYTHONPATH=src python benchmarks/campaign_report.py --scales 1k,10k
    PYTHONPATH=src python benchmarks/campaign_report.py --scales 25k \\
        --tree ../parent-clone
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
OUT_JSON = pathlib.Path(__file__).parent / "BENCH_campaign.json"

SCALES = {"1k": 1000, "10k": 10000, "25k": 25000, "50k": 50000}


def run_campaign(target: int) -> dict:
    """One cold layout campaign on ``chip_scale(target)``, in this
    process, with the modules on ``sys.path``."""
    import hashlib
    import resource
    import time

    from perfbench.designs import chip_bundle
    from repro.core.campaign import CbvCampaign
    from repro.core.report import report_to_json
    from repro.core.trace import CampaignTrace
    from repro.perf.cache import DesignCache

    bundle = chip_bundle(target, 0, True)
    trace = CampaignTrace()
    t0 = time.perf_counter()
    report = CbvCampaign(bundle).run(cache=DesignCache(), trace=trace)
    wall_s = time.perf_counter() - t0
    # This process's VmHWM: run in a child per scale, it is the scale's.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    canonical = report_to_json(report, canonical=True)
    return {
        "target": target,
        "wall_s": round(wall_s, 3),
        "peak_rss_mb": round(peak_mb, 1),
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16],
        "stages": {e.name: round(e.wall_s, 3) for e in trace.events
                   if e.event == "stage_end"},
        "checks": {e.name: round(e.wall_s, 3) for e in trace.events
                   if e.event == "check_end"},
    }


def measure(label: str, tree: pathlib.Path) -> dict:
    """``label``'s row, measured in a child process on ``tree``."""
    # Imported here: setup_report imports the package and the oracles,
    # which neither a child nor ``--summary`` should load.
    from setup_report import current_commit

    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]))
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(SCALES[label])],
        env=env, check=True, stdout=subprocess.PIPE, text=True)
    row = json.loads(out.stdout.strip().splitlines()[-1])
    row.update(commit=current_commit(tree), cpu_count=os.cpu_count() or 1)
    return row


def summary_table(payload: dict, labels: list[str]) -> str:
    """The rows of ``labels`` as a markdown table, one line per commit."""
    lines = ["| scale | commit | campaign s | recognition | layout | logic "
             "| circuit | timing | peak RSS MB | digest |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for label in labels:
        for commit, row in sorted(payload["scales"].get(label, {}).items()):
            st = row["stages"]
            lines.append(
                f"| {label} | `{commit}` | {row['wall_s']} "
                f"| {st.get('recognition', '-')} | {st.get('layout', '-')} "
                f"| {st.get('logic_verification', '-')} "
                f"| {st.get('circuit_verification', '-')} "
                f"| {st.get('timing_verification', '-')} "
                f"| {row['peak_rss_mb']} | `{row['digest']}` |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument(
        "--scales", default="1k,10k,25k",
        help="comma-separated subset of %s (default: 1k,10k,25k)"
        % list(SCALES))
    parser.add_argument(
        "--tree", type=pathlib.Path, default=REPO,
        help="checkout whose src/ the campaigns run (default: this one)")
    parser.add_argument(
        "--record-digests", action="store_true",
        help="re-record the reference digest of each scale run")
    parser.add_argument(
        "--summary", action="store_true",
        help="print the committed rows of --scales as a markdown table")
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(run_campaign(args.child)))
        return 0
    labels = [s.strip() for s in args.scales.split(",") if s.strip()]
    unknown = [s for s in labels if s not in SCALES]
    if unknown:
        parser.error(f"unknown scale(s) {unknown}; choose from {list(SCALES)}")
    payload = {"scales": {}, "digests": {}}
    if OUT_JSON.exists():
        payload = json.loads(OUT_JSON.read_text(encoding="utf-8"))
    if args.summary:
        print(summary_table(payload, labels))
        return 0

    tree = args.tree.resolve()
    print(f"campaign bench: scales {labels} on {tree}, "
          f"{os.cpu_count()} CPU(s)")
    failures = []
    for label in labels:
        row = measure(label, tree)
        print(f"[{label}] {row['wall_s']} s, peak {row['peak_rss_mb']} MB, "
              f"digest {row['digest']}, stages {row['stages']}")
        expected = payload["digests"].get(label)
        if expected is not None and row["digest"] != expected \
                and not args.record_digests:
            failures.append(f"{label}: digest {row['digest']} differs from "
                            f"the recorded {expected}")
            continue
        payload["digests"][label] = row["digest"]
        payload["scales"].setdefault(label, {})[row["commit"]] = row
    OUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {OUT_JSON.name}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
