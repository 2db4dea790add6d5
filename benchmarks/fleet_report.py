"""Fleet scaling benchmark: 1/2/4-worker wall clock over the bench suite.

For each worker count the script runs :func:`repro.fleet.run_fleet`
over ``BENCH_SUITE`` against a *fresh* artifact store (no cross-run
resume flattering the numbers), then

* verifies every fleet report is canonically **byte-identical** to a
  single-process ``CbvCampaign.run()`` of the same design -- any
  mismatch fails the build regardless of speed;
* records wall clock, steal/requeue/retry counters, per-kind job
  seconds, the share of jobs that found their design's session on
  their worker (:mod:`repro.fleet.session`) and the peak worker RSS
  into ``benchmarks/BENCH_fleet.json``, stamped with the commit and
  ``cpu_count``;
* writes the 4-worker run's merged fleet event log to
  ``benchmarks/FLEET_trace.jsonl``;
* asserts the 4-worker speedup over 1 worker clears ``FLOOR`` (1.5x)
  -- but only when the machine actually has >= 4 CPUs; on smaller
  boxes the floor is waived and the waiver reason is recorded in the
  JSON instead of faking a scaling result.

Usage::

    PYTHONPATH=src python benchmarks/fleet_report.py
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
import time

from repro.core.campaign import CbvCampaign
from repro.core.report import report_to_json
from repro.fleet import BENCH_SUITE, FleetConfig, run_fleet
from setup_report import current_commit

OUT_JSON = pathlib.Path(__file__).parent / "BENCH_fleet.json"
OUT_TRACE = pathlib.Path(__file__).parent / "FLEET_trace.jsonl"

WORKER_COUNTS = (1, 2, 4)
FLOOR = 1.5  # 4-worker speedup floor over 1 worker
FLOOR_MIN_CPUS = 4


def main() -> int:
    cpus = os.cpu_count() or 1
    print(f"fleet bench: {len(BENCH_SUITE)} designs, {cpus} CPU(s)")

    baselines: dict[str, str] = {}
    t0 = time.perf_counter()
    for name, factory in BENCH_SUITE.items():
        baselines[name] = report_to_json(CbvCampaign(factory()).run(),
                                         canonical=True)
    single_process_s = time.perf_counter() - t0
    print(f"single-process baseline: {single_process_s:.2f}s")

    runs: dict[str, dict] = {}
    mismatches: list[str] = []
    for workers in WORKER_COUNTS:
        store_dir = tempfile.mkdtemp(prefix=f"fleet-bench-{workers}w-")
        config = FleetConfig(store_dir=store_dir, fleet_timeout_s=900.0)
        t0 = time.perf_counter()
        result = run_fleet(dict(BENCH_SUITE), workers=workers, config=config)
        wall = time.perf_counter() - t0
        for name, failure in result.failed.items():
            mismatches.append(f"{workers}w: {name} failed: {failure}")
        for name, baseline in baselines.items():
            report = result.reports.get(name)
            if report is None:
                continue
            if report_to_json(report, canonical=True) != baseline:
                mismatches.append(
                    f"{workers}w: {name} canonical report diverged "
                    f"from single-process baseline")
        m = result.metrics
        runs[str(workers)] = {
            "wall_s": round(wall, 4),
            "jobs_done": m.jobs_done,
            "steals": m.steals,
            "requeues": m.requeues,
            "retries": m.retries,
            "lease_expirations": m.lease_expirations,
            "workers_dead": m.workers_dead,
            "write_contended": m.write_contended,
            "session_hit_share": round(
                m.session_hits / max(m.jobs_done, 1), 4),
            "worker_peak_rss_mb": round(m.worker_peak_rss_mb, 1),
            "stage_wall_s": {k: round(v, 4)
                             for k, v in sorted(m.stage_wall_s.items())},
        }
        print(f"{workers} worker(s): {wall:.2f}s, {m.jobs_done} jobs, "
              f"{m.steals} steals, {m.requeues} requeues, "
              f"{runs[str(workers)]['session_hit_share']:.0%} found "
              f"their session, worker peak "
              f"{m.worker_peak_rss_mb:.0f} MiB")
        if workers == max(WORKER_COUNTS):
            result.trace.write_jsonl(OUT_TRACE)
            print(f"wrote {OUT_TRACE.name}: "
                  f"{len(result.trace.events)} events")

    speedup = runs["1"]["wall_s"] / max(runs["4"]["wall_s"], 1e-9)
    floor_enforced = cpus >= FLOOR_MIN_CPUS
    payload = {
        "suite": sorted(BENCH_SUITE),
        "commit": current_commit(),
        "cpu_count": cpus,
        "single_process_s": round(single_process_s, 4),
        "runs": runs,
        "speedup_4w_over_1w": round(speedup, 3),
        "speedup_floor": FLOOR,
        "floor_enforced": floor_enforced,
        "floor_waived": not floor_enforced,
    }
    if not floor_enforced:
        payload["floor_waived_reason"] = (
            f"host has {cpus} CPU(s); a multi-process speedup floor is "
            f"only meaningful with >= {FLOOR_MIN_CPUS}")
    OUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {OUT_JSON.name}: 4w speedup {speedup:.2f}x "
          f"(floor {FLOOR}x, "
          f"{'enforced' if floor_enforced else 'waived'})")

    if mismatches:
        print("\nFAIL: fleet runs diverged from single-process baselines:",
              file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    if floor_enforced and speedup < FLOOR:
        print(f"\nFAIL: 4-worker speedup {speedup:.2f}x is below the "
              f"{FLOOR}x floor", file=sys.stderr)
        return 1
    print("all fleet reports byte-identical to single-process baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
