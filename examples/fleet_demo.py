"""Fleet demo: verify the seed designs on a worker-process pool.

The paper's CBV campaign ran on a farm of workstations.  This demo is
that farm scaled to your laptop: it verifies the seed suite on a
4-worker fleet (per-design flows split into checkpointed prepare /
sharded-battery / finalize jobs over a work-stealing queue), then runs
the same designs single-process and shows that the canonical reports
match **byte for byte** -- distribution leaves no fingerprints on the
results.

Run with::

    PYTHONPATH=src python examples/fleet_demo.py
"""

from repro.core.campaign import CbvCampaign
from repro.core.report import render_report, report_to_json
from repro.fleet import SEED_SUITE, run_fleet


def main() -> int:
    print(f"fleet: verifying {', '.join(SEED_SUITE)} on 4 workers...\n")
    result = run_fleet(SEED_SUITE, workers=4)

    for name in SEED_SUITE:
        print(render_report(result.reports[name]))
        print()

    m = result.metrics
    print(f"{m.jobs_done} jobs ({m.jobs_by_kind}) in {m.wall_s:.2f}s -- "
          f"{m.steals} steals, {m.requeues} requeues, "
          f"{m.workers_dead} worker deaths")
    print(f"merged fleet log: {len(result.trace.events)} events from "
          f"{len({e.worker for e in result.trace.events})} processes")
    print(f"shared checkpoint store: {result.store_dir}\n")

    print("single-process reruns (the distribution-is-invisible proof):")
    identical = True
    for name, factory in SEED_SUITE.items():
        baseline = CbvCampaign(factory()).run()
        match = (report_to_json(result.reports[name], canonical=True)
                 == report_to_json(baseline, canonical=True))
        identical = identical and match
        print(f"  {name}: canonical reports "
              f"{'byte-identical' if match else 'DIVERGED'}")
    # Design verdicts (e.g. an adder's setup violations) are printed
    # above; the exit code reports the fleet's own contract: every design
    # concluded, and distribution left the reports byte-identical.
    return 0 if identical and not result.failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
