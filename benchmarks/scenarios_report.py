"""Scenario acceptance bench: fuzz + Monte-Carlo through the fleet.

Runs the two scenario workloads at acceptance scale -- a 64-seed fuzz
campaign of the adder shadow target and a 256-sample Monte-Carlo sweep
of the Table-1 power cascade -- and demands the whole determinism
contract at once:

1. serial :class:`ScenarioCampaign` baselines (fixed shard layout);
2. :func:`repro.fleet.run_scenario_fleet` at 1/2/4 workers against
   fresh stores -- every rollup report must be canonically
   **byte-identical** to its serial baseline, any divergence fails the
   build regardless of speed;
3. a SIGKILL-and-resume leg: a child process runs the fuzz campaign
   against ``benchmarks/SCENARIO_store`` and is killed mid-campaign
   (after two shard checkpoints); the parent resumes from the surviving
   store, verifies the checkpointed seeds replayed instead of re-ran,
   and compares the resumed report byte-for-byte to the baseline.

Results land in ``benchmarks/BENCH_scenarios.json``: the Monte-Carlo
power distribution (mean / std / quantiles / 95% band around the
paper's ~0.5 W Table-1 anchor), fuzz agreement stats, per-worker-count
wall clocks, and the kill-resume evidence, stamped with the commit
(``git describe --always --dirty``) and ``cpu_count``.  The 4-worker
speedup floor is enforced only on hosts with >= 4 CPUs at full
acceptance scale; otherwise the floor is waived and the reason
recorded in the JSON (CI surfaces it in the job summary instead of
faking a scaling result).

Sizing knobs (CI smoke runs shrink them)::

    SCENARIOS_FUZZ_SEEDS=64 SCENARIOS_MC_SAMPLES=256 \
        PYTHONPATH=src python benchmarks/scenarios_report.py
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.fleet import FleetConfig, run_scenario_fleet
from repro.scenarios import FuzzSpec, MonteCarloSpec, ScenarioCampaign
from repro.store import ArtifactStore
from setup_report import current_commit

OUT_JSON = pathlib.Path(__file__).parent / "BENCH_scenarios.json"
STORE_ROOT = pathlib.Path(__file__).parent / "SCENARIO_store"

FUZZ_SEEDS = int(os.environ.get("SCENARIOS_FUZZ_SEEDS", "64"))
MC_SAMPLES = int(os.environ.get("SCENARIOS_MC_SAMPLES", "256"))
CYCLES = int(os.environ.get("SCENARIOS_CYCLES", "16"))
SHARDS = int(os.environ.get("SCENARIOS_SHARDS", "8"))

WORKER_COUNTS = (1, 2, 4)
FLOOR = 1.3  # 4-worker speedup floor over 1 worker
FLOOR_MIN_CPUS = 4
FULL_SCALE = (64, 256)  # (fuzz seeds, mc samples) the floor assumes

#: How many shard checkpoints the kill child completes before dying.
KILL_AFTER_SHARDS = 2


def specs() -> tuple[FuzzSpec, MonteCarloSpec]:
    fuzz = FuzzSpec(name="adder-fuzz",
                    target_ref="repro.scenarios.targets:adder4_shadow",
                    campaign_seed=2026, seeds=FUZZ_SEEDS, cycles=CYCLES)
    mc = MonteCarloSpec(name="cascade-mc", campaign_seed=2026,
                        samples=MC_SAMPLES)
    return fuzz, mc


def child_kill_run(store_dir: pathlib.Path) -> None:
    """Run the fuzz campaign, SIGKILL ourselves after two checkpoints."""
    import repro.scenarios.campaign as campaign_mod

    fuzz, _ = specs()
    real_run_shard = campaign_mod.run_shard
    done = [0]

    def dying_run_shard(spec_ref, lo, hi, worker_id=""):
        if done[0] >= KILL_AFTER_SHARDS:
            os.kill(os.getpid(), signal.SIGKILL)
        payload = real_run_shard(spec_ref, lo, hi, worker_id=worker_id)
        done[0] += 1
        return payload

    campaign_mod.run_shard = dying_run_shard
    ScenarioCampaign(fuzz, shards=SHARDS).run(
        store=ArtifactStore(store_dir))
    raise SystemExit("campaign survived its own SIGKILL")


def summarize(stats: dict, names: tuple[str, ...]) -> dict:
    picked = {}
    for name in names:
        if name in stats:
            picked[name] = {k: round(v, 6)
                            for k, v in sorted(stats[name].items())}
    return picked


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child-kill":
        child_kill_run(pathlib.Path(sys.argv[2]))
        return 3  # unreachable

    cpus = os.cpu_count() or 1
    fuzz, mc = specs()
    print(f"scenario bench: {fuzz.seeds}-seed fuzz + {mc.samples}-sample "
          f"Monte-Carlo, {SHARDS} shards, {cpus} CPU(s)")
    failures: list[str] = []

    # 1. Serial baselines (the semantic ground truth).
    t0 = time.perf_counter()
    baseline_reports = {
        spec.name: ScenarioCampaign(spec, shards=SHARDS).run()
        for spec in (fuzz, mc)
    }
    serial_s = time.perf_counter() - t0
    baselines = {name: report.to_json(canonical=True)
                 for name, report in baseline_reports.items()}
    print(f"serial baselines: {serial_s:.2f}s")
    if not baseline_reports[fuzz.name].ok():
        failures.append("fuzz baseline is not ok (mismatching samples on "
                        "the clean target)")
    mc_stats = baseline_reports[mc.name].rollup.stats()
    power = mc_stats["final_power_w"]
    print(f"final_power_w: mean {power['mean']:.3f} W, "
          f"ci95 [{power['ci95_lo']:.3f}, {power['ci95_hi']:.3f}], "
          f"p50 {power['p50']:.3f}")

    # 2. The fleet at 1/2/4 workers, byte-compared to serial.
    runs: dict[str, dict] = {}
    for workers in WORKER_COUNTS:
        store_dir = tempfile.mkdtemp(prefix=f"scen-bench-{workers}w-")
        config = FleetConfig(store_dir=store_dir, fleet_timeout_s=900.0)
        t0 = time.perf_counter()
        result = run_scenario_fleet({fuzz.name: fuzz, mc.name: mc},
                                    workers=workers, shards=SHARDS,
                                    config=config)
        wall = time.perf_counter() - t0
        for name, reason in result.failed.items():
            failures.append(f"{workers}w: {name} failed: {reason}")
        identical = True
        for name, baseline in baselines.items():
            report = result.reports.get(name)
            if report is None:
                continue
            if report.to_json(canonical=True) != baseline:
                identical = False
                failures.append(f"{workers}w: {name} canonical report "
                                f"diverged from the serial baseline")
        m = result.metrics
        runs[str(workers)] = {
            "wall_s": round(wall, 4),
            "jobs_done": m.jobs_done,
            "steals": m.steals,
            "requeues": m.requeues,
            "retries": m.retries,
            "workers_dead": m.workers_dead,
            "byte_identical_to_serial": identical,
        }
        print(f"{workers} worker(s): {wall:.2f}s, {m.jobs_done} jobs, "
              f"identical={identical}")

    # 3. SIGKILL-and-resume on the fuzz campaign.
    shutil.rmtree(STORE_ROOT, ignore_errors=True)
    child = subprocess.run(
        [sys.executable, __file__, "--child-kill", str(STORE_ROOT)],
        capture_output=True, text=True, timeout=600)
    kill_resume: dict = {}
    if child.returncode != -signal.SIGKILL:
        failures.append(f"kill child exited {child.returncode}, expected "
                        f"SIGKILL\n{child.stdout}{child.stderr}")
    else:
        store = ArtifactStore(STORE_ROOT)
        surviving = len(store.keys())
        resumed = ScenarioCampaign(fuzz, shards=SHARDS).run(store=store)
        events = [e.event for e in resumed.trace.events]
        hits = events.count("checkpoint.hit")
        identical = resumed.to_json(canonical=True) == baselines[fuzz.name]
        kill_resume = {
            "checkpoints_surviving_kill": surviving,
            "replayed_shards": hits,
            "recomputed_shards": events.count("checkpoint.write"),
            "corrupt_events": events.count("checkpoint.corrupt"),
            "resumed_report_identical_to_serial": identical,
        }
        print(f"kill-and-resume: {surviving} checkpoint(s) survived, "
              f"{hits} shard(s) replayed, identical={identical}")
        if hits != KILL_AFTER_SHARDS:
            failures.append(f"resume replayed {hits} shard(s), expected "
                            f"exactly the {KILL_AFTER_SHARDS} checkpointed "
                            f"before the kill")
        if not identical:
            failures.append("resumed fuzz report differs from the serial "
                            "baseline")

    speedup = runs["1"]["wall_s"] / max(runs["4"]["wall_s"], 1e-9)
    at_full_scale = (fuzz.seeds >= FULL_SCALE[0]
                     and mc.samples >= FULL_SCALE[1])
    floor_enforced = cpus >= FLOOR_MIN_CPUS and at_full_scale
    payload = {
        "config": {"fuzz_seeds": fuzz.seeds, "fuzz_cycles": fuzz.cycles,
                   "mc_samples": mc.samples, "shards": SHARDS},
        "commit": current_commit(),
        "cpu_count": cpus,
        "serial_s": round(serial_s, 4),
        "montecarlo_stats": summarize(
            mc_stats, ("final_power_w", "reduction_x", "vdd_v")),
        "fuzz_stats": summarize(
            baseline_reports[fuzz.name].rollup.stats(),
            ("agreement_rate", "mismatches", "compared")),
        "runs": runs,
        "kill_resume": kill_resume,
        "speedup_4w_over_1w": round(speedup, 3),
        "speedup_floor": FLOOR,
        "floor_enforced": floor_enforced,
        "floor_waived": not floor_enforced,
    }
    if not floor_enforced:
        payload["floor_waived_reason"] = (
            f"host has {cpus} CPU(s); a multi-process speedup floor needs "
            f">= {FLOOR_MIN_CPUS}" if cpus < FLOOR_MIN_CPUS else
            f"smoke scale ({fuzz.seeds} seeds / {mc.samples} samples) is "
            f"below the acceptance scale {FULL_SCALE} the floor assumes")
    OUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {OUT_JSON.name}: 4w speedup {speedup:.2f}x "
          f"(floor {FLOOR}x, "
          f"{'enforced' if floor_enforced else 'waived'})")

    if floor_enforced and speedup < FLOOR:
        failures.append(f"4-worker speedup {speedup:.2f}x is below the "
                        f"{FLOOR}x floor")
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("all scenario reports byte-identical across workers and "
          "kill-and-resume")
    return 0


if __name__ == "__main__":
    sys.exit(main())
