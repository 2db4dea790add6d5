"""Shared design factory and hostile check for the fleet tests.

Everything here is module-level so fleet workers can unpickle the
bundle factory (and the killer check class) by reference, and so the
in-test single-process baseline hashes the very same RTL-intent lambda
code objects -- the same trick ``tests/core/checkpoint_harness.py``
uses for the kill-and-resume acceptance test.
"""

import os
import pickle
import signal
import struct

from repro.checks.base import Check
from repro.core.campaign import DesignBundle
from repro.netlist.builder import CellBuilder
from repro.process.technology import strongarm_technology
from repro.timing.clocking import TwoPhaseClock

#: Environment variable naming the kill sentinel file.  Workers inherit
#: it across fork; the first battery that runs :class:`KillWorkerOnce`
#: with no sentinel on disk creates it and SIGKILLs its own process.
SENTINEL_ENV = "REPRO_FLEET_KILL_SENTINEL"

#: Sentinel for :class:`StopWorkerOnce` (SIGSTOP instead of SIGKILL).
STOP_SENTINEL_ENV = "REPRO_FLEET_STOP_SENTINEL"

#: Sentinel for :func:`torn_worker_main` (killed partway through a
#: message instead of inside a check).
TORN_SENTINEL_ENV = "REPRO_FLEET_TORN_SENTINEL"


def dp_bundle() -> DesignBundle:
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


class KillWorkerOnce(Check):
    """SIGKILL the hosting worker -- but only the first time, fleet-wide.

    The sentinel file (``O_EXCL``-claimed, so exactly one process dies
    even if two run the check concurrently) makes the retry -- and the
    single-process baseline run afterwards -- sail through cleanly with
    zero findings, keeping the canonical reports comparable.
    """

    name = "kill_worker_once"

    def run(self, ctx):
        sentinel = os.environ.get(SENTINEL_ENV)
        if not sentinel:
            return []
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return []
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)
        return []  # unreachable


class StopWorkerOnce(Check):
    """SIGSTOP the hosting worker -- once, fleet-wide.

    A stopped process is the watchdog's case, not the death monitor's:
    it is still alive (so ``worker_dead`` never fires on its own) and
    its heartbeat thread is frozen with it, so only the heartbeat-age
    watchdog (``FleetConfig.hung_after_s``) can notice.  Same O_EXCL
    sentinel discipline as :class:`KillWorkerOnce`, so the retry and
    the single-process baseline both run it as a clean no-op.
    """

    name = "stop_worker_once"

    def run(self, ctx):
        sentinel = os.environ.get(STOP_SENTINEL_ENV)
        if not sentinel:
            return []
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return []
        os.close(fd)
        os.kill(os.getpid(), signal.SIGSTOP)
        return []  # resumes here only after the watchdog SIGKILLs us


class KillWorkerAlways(Check):
    """SIGKILL *every* worker that runs it -- the poison-shard case.

    No sentinel: the battery shard containing this check kills its
    worker on every attempt, so retries can never get it through and
    the scheduler must quarantine the shard instead of abandoning the
    design.
    """

    name = "kill_worker_always"

    def run(self, ctx):
        os.kill(os.getpid(), signal.SIGKILL)
        return []  # unreachable


class _TornOnce:
    """A worker's pipe end that cuts one message off halfway, fleet-wide.

    The first ``done`` message it carries goes out as its length prefix
    and half its bytes (the ``multiprocessing`` connection framing);
    then the worker SIGKILLs itself, exactly as a kill landing in the
    middle of a send would leave the pipe.  Same O_EXCL sentinel
    discipline as :class:`KillWorkerOnce`.
    """

    def __init__(self, conn) -> None:
        self.conn = conn

    def send(self, message) -> None:
        sentinel = os.environ.get(TORN_SENTINEL_ENV)
        if message[0] == "done" and sentinel:
            try:
                fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                data = pickle.dumps(message)
                os.write(self.conn.fileno(), struct.pack("!i", len(data))
                         + data[:len(data) // 2])
                os.kill(os.getpid(), signal.SIGKILL)
        self.conn.send(message)


def torn_worker_main(worker_id, inbox, outbox, config):
    """``repro.fleet.worker.worker_main`` over a :class:`_TornOnce` pipe."""
    from repro.fleet.worker import worker_main

    worker_main(worker_id, inbox, _TornOnce(outbox), config)
