"""``_Pool.call_soon`` wakes the scheduler loop instead of waiting a tick.

The service injects every launched campaign through ``call_soon`` from
its event-loop thread.  ``poll_s`` is only the supervision tick (leases,
the hung-worker watchdog, the chaos clock); an injection into an idle
pool must run at once, not when the loop's wait for worker messages
times out.
"""

import threading
import time

from repro.fleet import FleetConfig, design_flow_hook, prepare_job
from repro.fleet.scheduler import _Pool

POLL_S = 5.0


def test_injection_into_an_idle_pool_runs_without_waiting_out_the_tick(
        tmp_path):
    config = FleetConfig(store_dir=str(tmp_path / "store"), poll_s=POLL_S,
                         fleet_timeout_s=120.0)
    sealed = threading.Event()
    finished = []

    def finish(pool, job, result):
        finished.append(job.design)
        pool.finish(job.design, result.get("ok"))
        sealed.set()

    pool = _Pool(workers=1, config=config,
                 on_job_done=design_flow_hook(config, finish=finish))
    runner = threading.Thread(target=pool.run, args=([],), daemon=True)
    runner.start()
    try:
        deadline = time.monotonic() + 30.0
        while not (pool.handles
                   and all(h.ready for h in pool.handles.values())):
            assert time.monotonic() < deadline, "worker never came up"
            time.sleep(0.01)
        time.sleep(0.2)  # the loop is now parked in its outbox wait

        def start(p):
            p.add_design("adder8")
            p.submit(prepare_job("adder8", "repro.fleet.suite:adder8"))

        t0 = time.monotonic()
        pool.call_soon(start)
        assert sealed.wait(timeout=4 * POLL_S)
        elapsed = time.monotonic() - t0
        assert elapsed < POLL_S / 2, f"injection took {elapsed:.2f}s"

        stop_t0 = time.monotonic()
        pool.call_soon(lambda p: p.request_stop())
        runner.join(timeout=4 * POLL_S)
        assert not runner.is_alive()
        assert time.monotonic() - stop_t0 < POLL_S
    finally:
        if runner.is_alive():
            pool.call_soon(lambda p: p.request_stop(abort=True))
            runner.join(timeout=4 * POLL_S)

    assert finished == ["adder8"]
    assert not pool.names and not pool.jobs_by_id
    # The service's stop path may call in after the loop has exited.
    pool.call_soon(lambda p: p.request_stop(abort=True))
