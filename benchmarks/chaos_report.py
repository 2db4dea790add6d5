"""Chaos soak: N seeded fault schedules, byte-identical survival or bust.

The harness's acceptance gate.  Three sweeps, all against pinned
deterministic :class:`~repro.chaos.FaultPlan` schedules:

* **serial store soak** -- ``CHAOS_SCHEDULES`` seeded mixed-fault
  schedules (ENOSPC/EIO writes, truncated/bit-flipped blobs, torn
  locks, slow-disk latency) driven through a cold chaos campaign and a
  resumed one.  Store faults are all survivable by contract, so every
  canonical report must be **byte-identical** to the fault-free
  baseline -- including runs that degraded to un-checkpointed on a
  sticky ENOSPC.
* **fleet supervision schedules** -- pinned SIGSTOP (watchdog reap),
  lease-clock-jump (lease re-arm) and full-disk (every store write
  ENOSPC, so no shard blob lands and finalize recomputes the shards)
  schedules through a 2-worker fleet; all must survive
  byte-identically.
* **poison-shard schedule** -- a hostile check that kills every worker
  leasing its shard; the design must ship a *well-formed degraded*
  report (ERROR circuit stage naming the quarantine, timing intact),
  never be abandoned.

Any non-canonical survival -- a run that "passed" with different bytes
-- exits 1.  Results land in ``benchmarks/BENCH_chaos.json``, stamped
with the commit (``git describe --always --dirty``) and ``cpu_count``.

Usage::

    PYTHONPATH=src python benchmarks/chaos_report.py
    CHAOS_SCHEDULES=3 PYTHONPATH=src python benchmarks/chaos_report.py  # smoke
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
import time

from repro.chaos import ChaosStore, FaultPlan
from repro.checks.registry import ALL_CHECKS
from repro.checks.base import Check
from repro.core.campaign import CbvCampaign
from repro.core.report import report_from_dict, report_to_dict, report_to_json
from repro.core.stages import FlowStage, StageStatus
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.suite import alpha_slice_bundle
from repro.process.technology import strongarm_technology
from setup_report import current_commit

OUT_JSON = pathlib.Path(__file__).parent / "BENCH_chaos.json"

#: Serial store-fault schedules (override with CHAOS_SCHEDULES).
DEFAULT_SCHEDULES = 10
#: First serial schedule seed; schedule i uses BASE_SEED + i.
BASE_SEED = 3000

#: Mixed store-fault rates every serial schedule draws from.
STORE_RATES = {"store.put": 0.4, "store.get": 0.4,
               "store.lock": 0.3, "store.latency": 0.5}

#: Pinned fleet schedules (seeds verified to fire; see tests/fleet).
SIGSTOP_SEED = 4
CLOCK_SEED = 8
FULL_DISK_SEED = 7


def bundle():
    return alpha_slice_bundle(strongarm_technology())


class KillShardCheck(Check):
    """Kills every worker that runs it -- the poison-shard schedule."""

    name = "bench_kill_shard"

    def run(self, ctx):
        import signal
        os.kill(os.getpid(), signal.SIGKILL)
        return []


def serial_soak(schedules: int, baseline: str) -> tuple[list[dict], list[str]]:
    results, failures = [], []
    for i in range(schedules):
        seed = BASE_SEED + i
        # Every third schedule is a pure full-disk run: the sticky
        # ENOSPC degraded path must soak too, not just the retry path.
        if i % 3 == 2:
            plan = FaultPlan.make(seed, rates={"store.put": 1.0},
                                  kinds={"store.put": ("enospc",)},
                                  max_per_hook=99)
        else:
            plan = FaultPlan.make(seed, rates=STORE_RATES,
                                  latency_s=0.001, max_per_hook=6)
        root = tempfile.mkdtemp(prefix=f"chaos-soak-{seed}-")
        record = {"seed": seed, "kind": "serial-store", "runs": []}
        t0 = time.perf_counter()
        for phase in ("cold", "resumed"):
            store = ChaosStore(root, plan, lock_stale_s=0.2,
                               lock_timeout_s=5.0, write_retries=1,
                               write_backoff_s=0.005)
            report = CbvCampaign(bundle()).run(store=store)
            identical = report_to_json(report, canonical=True) == baseline
            record["runs"].append({
                "phase": phase,
                "identical": identical,
                "degraded": store.degraded,
                "injected": store.injector.counters(),
            })
            if not identical:
                failures.append(
                    f"schedule {seed} ({phase}): canonical report diverged "
                    f"from the fault-free baseline")
        record["wall_s"] = round(time.perf_counter() - t0, 4)
        record["injected_total"] = sum(
            sum(r["injected"].values()) for r in record["runs"])
        results.append(record)
        print(f"  seed {seed}: {record['injected_total']} faults, "
              f"degraded={any(r['degraded'] for r in record['runs'])}, "
              f"identical={all(r['identical'] for r in record['runs'])}")
    return results, failures


def fleet_schedules(baseline: str) -> tuple[list[dict], list[str]]:
    results, failures = [], []
    specs = [
        ("sigstop-watchdog",
         FaultPlan.make(SIGSTOP_SEED, rates={"worker.job_start": 0.35},
                        kinds={"worker.job_start": ("sigstop",)},
                        max_per_hook=1),
         dict(hung_after_s=1.5, lease_s=30.0)),
        ("clock-jump",
         FaultPlan.make(CLOCK_SEED, rates={"scheduler.clock": 0.35},
                        clock_jump_s=120.0, max_per_hook=2),
         dict(hung_after_s=5.0, lease_s=20.0)),
        ("full-disk",
         FaultPlan.make(FULL_DISK_SEED, rates={"store.put": 1.0},
                        kinds={"store.put": ("enospc",)}),
         dict()),
    ]
    for name, plan, knobs in specs:
        config = FleetConfig(
            store_dir=tempfile.mkdtemp(prefix=f"chaos-fleet-{name}-"),
            heartbeat_s=0.1, fleet_timeout_s=180.0, chaos=plan, **knobs)
        t0 = time.perf_counter()
        result = run_fleet({"alpha_slice": bundle}, workers=2, config=config)
        wall = time.perf_counter() - t0
        m = result.metrics
        report = result.reports.get("alpha_slice")
        identical = (report is not None and not result.failed
                     and report_to_json(report, canonical=True) == baseline)
        results.append({
            "schedule": name, "seed": plan.seed, "kind": "fleet",
            "wall_s": round(wall, 4), "identical": identical,
            "failed": dict(result.failed),
            "workers_hung": m.workers_hung,
            "leases_rearmed": m.leases_rearmed,
            "poison_shards": m.poison_shards,
            "workers_dead": m.workers_dead,
        })
        print(f"  {name}: identical={identical}, hung={m.workers_hung}, "
              f"rearmed={m.leases_rearmed}, wall={wall:.1f}s")
        if not identical:
            failures.append(f"fleet schedule {name}: survival was not "
                            f"byte-identical ({result.failed or 'diverged'})")
    return results, failures


def poison_schedule() -> tuple[dict, list[str]]:
    failures = []
    config = FleetConfig(
        store_dir=tempfile.mkdtemp(prefix="chaos-poison-"),
        checks=ALL_CHECKS + (KillShardCheck,),
        heartbeat_s=0.1, lease_s=10.0, hung_after_s=5.0,
        max_respawns=8, fleet_timeout_s=180.0)
    t0 = time.perf_counter()
    result = run_fleet({"alpha_slice": bundle}, workers=2, config=config)
    wall = time.perf_counter() - t0
    m = result.metrics
    report = result.reports.get("alpha_slice")

    degraded_ok = False
    detail = ""
    if result.failed or report is None:
        detail = f"design abandoned: {result.failed}"
    elif m.poison_shards < 1:
        detail = "no shard was quarantined"
    else:
        by_stage = {s.stage: s for s in report.stages}
        circuit = by_stage.get(FlowStage.CIRCUIT_VERIFICATION)
        timing = by_stage.get(FlowStage.TIMING_VERIFICATION)
        if circuit is None or circuit.status is not StageStatus.ERROR:
            detail = "circuit stage did not degrade to ERROR"
        elif "poison" not in circuit.summary.lower():
            detail = "circuit ERROR does not name the quarantine"
        elif timing is None:
            detail = "timing stage missing from the degraded report"
        else:
            # Well-formed: the degraded report must round-trip.
            clone = report_from_dict(report_to_dict(report))
            degraded_ok = (report_to_json(clone, canonical=True)
                           == report_to_json(report, canonical=True))
            if not degraded_ok:
                detail = "degraded report does not round-trip"
    if not degraded_ok:
        failures.append(f"poison schedule: {detail}")
    print(f"  poison-shard: degraded_ok={degraded_ok}, "
          f"poisoned={m.poison_shards}, wall={wall:.1f}s"
          + (f" ({detail})" if detail else ""))
    return {
        "schedule": "poison-shard", "kind": "fleet-degraded",
        "wall_s": round(wall, 4), "degraded_ok": degraded_ok,
        "poison_shards": m.poison_shards, "workers_dead": m.workers_dead,
        "detail": detail,
    }, failures


def main() -> int:
    schedules = int(os.environ.get("CHAOS_SCHEDULES", DEFAULT_SCHEDULES))
    print(f"chaos soak: {schedules} serial schedule(s) + "
          f"4 fleet schedule(s)")
    baseline = report_to_json(CbvCampaign(bundle()).run(), canonical=True)

    print("serial store-fault soak:")
    serial, failures = serial_soak(schedules, baseline)
    print("fleet supervision schedules:")
    fleet, fleet_failures = fleet_schedules(baseline)
    failures += fleet_failures
    poison, poison_failures = poison_schedule()
    failures += poison_failures

    total_faults = sum(r["injected_total"] for r in serial)
    payload = {
        "commit": current_commit(),
        "cpu_count": os.cpu_count() or 1,
        "schedules": schedules,
        "store_rates": STORE_RATES,
        "base_seed": BASE_SEED,
        "serial": serial,
        "fleet": fleet,
        "poison": poison,
        "total_injected_store_faults": total_faults,
        "survived_byte_identical": not failures,
        "failures": failures,
    }
    OUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {OUT_JSON.name}: {total_faults} store faults injected, "
          f"{'clean' if not failures else f'{len(failures)} failure(s)'}")

    if failures:
        print("\nFAIL: non-canonical chaos survival:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("every survivable schedule was byte-identical; "
          "the poison schedule degraded cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
