"""Service benchmark: fair-share convergence + the two cache contracts.

Drives a real in-process verification service over the wire protocol
and measures the three properties the service front end promises:

* **fair share** -- two tenants at 4:1 weights saturate the admission
  queue with distinct-fingerprint design variants while the pool runs
  one campaign at a time; the deficit-round-robin drain must hand out
  grants 4:1, so over the first saturated window of 15 grants the
  heavy tenant completes ~12 campaigns and the light one ~3.  Grant
  order is reconstructed from each campaign's ``launch_index`` stream
  counter.  On hosts with < 2 CPUs the share floor is waived (recorded
  in the JSON with the reason) rather than faked;
* **byte identity** -- a canonical report fetched through the service
  must equal a direct single-process ``CbvCampaign.run()`` of the same
  bundle byte for byte; any mismatch fails the build regardless of the
  fairness numbers;
* **verdict cache** -- resubmitting a sealed design must answer
  ``cached`` with zero additional launches and a byte-identical
  canonical report;
* **retention** -- a long-running service keeps memory only for its
  campaign records.  A child process runs a one-worker service, warms
  it up, then answers fresh and cached requests from a client that
  keeps nothing; the service process's ``tracemalloc`` growth across
  them, per request, must stay at or below ``RETENTION_CEILING_KIB``.

Results land in ``benchmarks/BENCH_service.json``, stamped with the
commit and ``cpu_count``.  ``--parent DIR`` also measures the retention
phase on another checkout's ``src/`` (a ``git clone`` of the parent
commit, say) and records it beside this tree's number; without it, the
parent entry already in the file is kept.

Usage::

    PYTHONPATH=src python benchmarks/service_report.py
    PYTHONPATH=src python benchmarks/service_report.py --parent ../parent
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

from repro.core.campaign import CbvCampaign
from repro.core.report import report_to_json
from repro.fleet.jobs import FleetConfig, resolve_bundle
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    variant_ref,
)
from setup_report import current_commit

REPO = pathlib.Path(__file__).resolve().parent.parent
OUT_JSON = pathlib.Path(__file__).parent / "BENCH_service.json"

#: Campaigns per tenant; both tenants submit this many distinct
#: variants, enough to keep the queues saturated past the window.
PER_TENANT = 12
#: The saturated measurement window (grants 2..WINDOW+1; grant 1 is
#: the uncontended warmup).  A multiple of weight_sum so the DRR
#: pattern tiles it exactly.
WINDOW = 15
WEIGHTS = {"gold": 4.0, "econ": 1.0}
#: Expected heavy-tenant completions in the window, with +-1 slack for
#: submission raggedness at the window edges.
EXPECTED_GOLD = 12
SLACK = 1
FLOOR_MIN_CPUS = 2

WARMUP_REF = "repro.fleet.suite:alpha_slice"

#: The retention phase: warm-up designs, then fresh designs in blocks
#: of ``RETENTION_BLOCK`` each followed by one cached repeat of a design
#: sealed before the block (perfbench ``service_closed``'s mix).
RETENTION_WARMUP = 8
RETENTION_FRESH = 48
RETENTION_BLOCK = 3
#: Ceiling on the service process's retained memory per request.  A
#: service that kept every relayed event, scheduler event, finished
#: job and live report read about 124 KiB here.
RETENTION_CEILING_KIB = 32.0


def measure_retention() -> dict:
    """Retained service memory per request, measured in this process.

    The client keeps nothing it is sent.  ``tracemalloc`` starts after
    the warm-up, so its traced total after the measured requests (and a
    full collection) is what they left behind.
    """
    import gc
    import tempfile
    import tracemalloc

    store = tempfile.TemporaryDirectory(prefix="repro-retention-")
    handle = ServiceThread(ServiceConfig(
        workers=1, fleet=FleetConfig(store_dir=store.name)))
    client = ServiceClient(*handle.start(), timeout_s=600.0)

    def request(index: int) -> bool:
        sub = client.submit(variant_ref(index), tenant="retention")
        client.report(sub["campaign"], canonical=True)
        return bool(sub["cached"])

    fresh = list(range(RETENTION_WARMUP, RETENTION_WARMUP + RETENTION_FRESH))
    plan = []
    for start in range(0, len(fresh), RETENTION_BLOCK):
        plan += [(i, False) for i in fresh[start:start + RETENTION_BLOCK]]
        plan.append((fresh[start] - RETENTION_WARMUP, True))
    try:
        for index in range(RETENTION_WARMUP):
            request(index)
        gc.collect()
        tracemalloc.start()
        wrong = [index for index, cached in plan if request(index) != cached]
        # The last fresh campaign's verdict write may still be running.
        seals = RETENTION_WARMUP + RETENTION_FRESH
        deadline = time.monotonic() + 60.0
        while (client.status()["verdict_cache"]["verdict_seals"] < seals
               and time.monotonic() < deadline):
            time.sleep(0.05)
        time.sleep(0.2)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
        top = tracemalloc.take_snapshot().statistics("lineno")[:3]
        tracemalloc.stop()
    finally:
        handle.stop()
        store.cleanup()
    return {
        "warmup": RETENTION_WARMUP,
        "fresh": RETENTION_FRESH,
        "cached": len(plan) - RETENTION_FRESH,
        "unexpected_cache_answers": wrong,
        "retained_kib_per_request": round(retained / 1024 / len(plan), 2),
        "top_sites": [f"{s.traceback[0].filename.rsplit('/', 1)[-1]}:"
                      f"{s.traceback[0].lineno} {s.size // 1024} KiB"
                      for s in top],
    }


def retention(tree: pathlib.Path) -> dict:
    """:func:`measure_retention` in a child process on ``tree``'s src."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]))
    out = subprocess.run([sys.executable, __file__, "--retention-child"],
                         env=env, check=True, stdout=subprocess.PIPE,
                         text=True)
    row = json.loads(out.stdout.strip().splitlines()[-1])
    row.update(commit=current_commit(tree), cpu_count=os.cpu_count() or 1)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--retention-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument(
        "--parent", type=pathlib.Path,
        help="also measure the retention phase on this checkout's src/")
    args = parser.parse_args(argv)
    if args.retention_child:
        print(json.dumps(measure_retention()))
        return 0
    cpus = os.cpu_count() or 1
    print(f"service bench: 2 tenants at 4:1, {2 * PER_TENANT} variant "
          f"campaigns, {cpus} CPU(s)")

    handle = ServiceThread(ServiceConfig(
        workers=2, max_inflight=1,  # serialize grants: completion == DRR order
        fleet=FleetConfig(store_dir=None)))
    host, port = handle.start()
    client = ServiceClient(host, port, timeout_s=1200.0)
    failures: list[str] = []
    try:
        for tenant, weight in WEIGHTS.items():
            client.configure_tenant(tenant, weight=weight,
                                    max_inflight=4,
                                    max_queued=PER_TENANT + 2)

        # Warmup occupies the single pool slot while both tenant
        # queues fill behind it, so the measured window starts from a
        # fully saturated, zero-deficit state.
        warmup = client.submit(WARMUP_REF, tenant="warmup", name="warmup")

        t0 = time.perf_counter()
        campaigns: dict[str, list[str]] = {t: [] for t in WEIGHTS}
        for i in range(PER_TENANT):
            campaigns["gold"].append(
                client.submit(variant_ref(i), tenant="gold")["campaign"])
            campaigns["econ"].append(
                client.submit(variant_ref(PER_TENANT + i),
                              tenant="econ")["campaign"])
        submitted_s = time.perf_counter() - t0
        print(f"submitted {2 * PER_TENANT} campaigns in {submitted_s:.2f}s; "
              f"draining...")

        for cids in campaigns.values():
            for cid in cids:
                state = client.wait(cid)
                if state != "sealed":
                    failures.append(f"campaign {cid} ended {state}")
        client.wait(warmup["campaign"])
        wall_s = time.perf_counter() - t0

        # Reconstruct grant order from the launch_index counters.
        launch_order: list[tuple[int, str]] = []
        for tenant, cids in campaigns.items():
            for cid in cids:
                for event in client.events(cid, follow=False):
                    if (event["event"] == "service.progress"
                            and event.get("status") == "launched"):
                        index = int(event["counters"]["launch_index"])
                        launch_order.append((index, tenant))
                        break
        launch_order.sort()
        window = [tenant for _idx, tenant in launch_order[:WINDOW]]
        gold_in_window = window.count("gold")
        econ_in_window = window.count("econ")
        share = gold_in_window / max(len(window), 1)
        print(f"first {len(window)} contended grants: "
              f"gold {gold_in_window}, econ {econ_in_window} "
              f"(heavy share {share:.2f}, weights want "
              f"{WEIGHTS['gold'] / sum(WEIGHTS.values()):.2f})")

        floor_enforced = cpus >= FLOOR_MIN_CPUS
        if floor_enforced and abs(gold_in_window - EXPECTED_GOLD) > SLACK:
            failures.append(
                f"fair-share window held {gold_in_window} gold grants, "
                f"expected {EXPECTED_GOLD} +- {SLACK}")

        # Byte identity through the service, against a direct run.
        probe = campaigns["gold"][0]
        via_service = client.report(probe, canonical=True)
        direct = report_to_json(
            CbvCampaign(resolve_bundle(variant_ref(0))).run(),
            canonical=True)
        byte_identical = via_service == direct
        if not byte_identical:
            failures.append(
                "canonical report via service diverged from direct run")
        print(f"byte identity vs direct run: {byte_identical}")

        # Cache contract: resubmit a sealed variant.
        launched_before = client.status()["metrics"]["launched"]
        resub = client.submit(variant_ref(0), tenant="freeloader")
        cache_hit = bool(resub["cached"])
        cached_identical = (client.report(resub["campaign"], canonical=True)
                           == via_service)
        launched_after = client.status()["metrics"]["launched"]
        zero_executions = launched_after == launched_before
        for label, value in (("cache_hit", cache_hit),
                             ("cached_identical", cached_identical),
                             ("zero_executions", zero_executions)):
            if not value:
                failures.append(f"verdict-cache contract broken: {label}")
        print(f"resubmission: cached={cache_hit}, byte-identical="
              f"{cached_identical}, zero new launches={zero_executions}")

        status = client.status()
        payload = {
            "commit": current_commit(),
            "cpu_count": cpus,
            "tenants": WEIGHTS,
            "per_tenant_campaigns": PER_TENANT,
            "window": len(window),
            "gold_in_window": gold_in_window,
            "econ_in_window": econ_in_window,
            "heavy_share": round(share, 4),
            "expected_gold": EXPECTED_GOLD,
            "slack": SLACK,
            "floor_enforced": floor_enforced,
            "floor_waived": not floor_enforced,
            "byte_identical": byte_identical,
            "cache_hit": cache_hit,
            "cached_identical": cached_identical,
            "zero_executions": zero_executions,
            "submitted_s": round(submitted_s, 4),
            "wall_s": round(wall_s, 4),
            "service_metrics": status["metrics"],
            "verdict_cache": status["verdict_cache"],
            "store": status["store"],
        }
        if not floor_enforced:
            payload["floor_waived_reason"] = (
                f"host has {cpus} CPU(s); a contended fair-share window "
                f"is only meaningful with >= {FLOOR_MIN_CPUS}")
    finally:
        handle.stop()

    # Retention runs after the fair-share service has stopped, on a
    # service of its own in a child process.
    kept = payload["retention"] = retention(REPO)
    print(f"retention: {kept['retained_kib_per_request']} KiB per request "
          f"over {kept['fresh']} fresh + {kept['cached']} cached "
          f"(ceiling {RETENTION_CEILING_KIB} KiB); top sites "
          f"{kept['top_sites']}")
    if args.parent is not None:
        kept["parent"] = retention(args.parent.resolve())
    elif OUT_JSON.exists():
        previous = json.loads(OUT_JSON.read_text(encoding="utf-8"))
        parent = previous.get("retention", {}).get("parent")
        if parent is not None:
            kept["parent"] = parent
    if "parent" in kept:
        print(f"retention at {kept['parent']['commit']}: "
              f"{kept['parent']['retained_kib_per_request']} KiB per request")
    kept["ceiling_kib"] = RETENTION_CEILING_KIB
    if kept["retained_kib_per_request"] > RETENTION_CEILING_KIB:
        failures.append(
            f"service retained {kept['retained_kib_per_request']} KiB per "
            f"request, above the {RETENTION_CEILING_KIB} KiB ceiling")
    if kept["unexpected_cache_answers"]:
        failures.append(f"retention phase: designs "
                        f"{kept['unexpected_cache_answers']} were not "
                        f"answered as planned (fresh or cached)")
    OUT_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {OUT_JSON.name} "
          f"(floor {'enforced' if floor_enforced else 'waived'})")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("service bench: fair share, byte identity, cache and retention "
          "contracts all hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
