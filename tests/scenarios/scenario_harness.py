"""Hostile fuzz target for the scenario-fleet supervision test.

Module-level so fleet workers resolve ``"scenario_harness:..."`` by
reference after fork -- the same trick :mod:`fleet_harness` uses for
the killer check.
"""

import os
import signal

from repro.scenarios import FuzzSpec

#: Environment variable naming the kill sentinel file.
SENTINEL_ENV = "REPRO_SCENARIO_KILL_SENTINEL"

#: A spec resolvable by the "module:attr" string form.
demo_fuzz = FuzzSpec(name="demo",
                     target_ref="repro.scenarios.targets:adder4_shadow",
                     campaign_seed=2026, seeds=4, cycles=4)


def killer_adder_shadow():
    """The clean adder target, except the first resolution fleet-wide
    SIGKILLs its own worker process mid-shard.

    The sentinel file is ``O_EXCL``-claimed, so exactly one process dies
    even when two workers resolve the target concurrently.
    """
    sentinel = os.environ.get(SENTINEL_ENV)
    if sentinel:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    from repro.scenarios.targets import adder4_shadow
    return adder4_shadow()
