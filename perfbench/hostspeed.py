"""Host speed, measured with a fixed pure-Python loop.

The benchmark's hosts are shared virtual machines whose speed drifts.
On the 2-CPU VM this benchmark was tuned on, one timing of the loop
below ranged 0.010-0.017 s, and over six minutes even its fastest
timings drifted by a third, with no CPU steal recorded.  Host seconds
measured minutes apart are therefore not comparable, and no statistic
over one run's own samples (median, minimum) removes a drift that lasts
longer than the run.

So every timed call is accompanied by timings of the loop taken in the
same process -- just before and after a short call, and every half
second during a long one -- and its time is reported in *reference
seconds*: host seconds times the mean of ``REFERENCE_S / t`` over those
timings ``t``, that is, the seconds the call would have taken at the
loop's reference speed.  The loop runs no ``repro`` code, so a change to
the program moves reference seconds as it moves host seconds on a host
of constant speed.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds of one :func:`_loop` on the reference host (a 2-CPU Intel
#: Xeon VM at 2.0 GHz, Python 3.11) in a quiet spell.  It sets only the
#: scale of reference seconds.
REFERENCE_S = 0.012
#: Loop timings taken before or after a call: about 0.1 s.  In 30
#: set-up probes, 8 on each side left as little spread as 16.
SAMPLES = 8


def _loop() -> int:
    """Dictionary and integer work, like the interpreter-bound program."""
    table = dict.fromkeys(range(512), 0)
    total = 0
    for i in range(60_000):
        table[i & 511] = i
        total += table[(i * 7) & 511]
    return total


def _timed_loop() -> float:
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def speed(samples: int = SAMPLES) -> list[float]:
    """``samples`` timings of the loop, in host seconds."""
    return [_timed_loop() for _ in range(samples)]


def reference_seconds(host_s: float, timings: list[float]) -> float:
    """``host_s`` host seconds in reference seconds, given loop timings."""
    if not timings:
        raise ValueError("no loop timings")
    return host_s * statistics.fmean(REFERENCE_S / t for t in timings)


class Sampled:
    """Time a long call in one thread, with loop timings during it.

    ``with Sampled() as timer: call()`` leaves the call's host seconds,
    less the time spent in the loop itself, in ``timer.host_s``, and its
    reference seconds in ``timer.reference_s``.  A ``SIGALRM`` handler
    times the loop every ``period_s`` seconds on the main thread, so the
    call must run there and must not use ``SIGALRM`` itself; the other
    CPU is left alone, because loop timings taken while another process
    of the run computes would measure that process too.
    """

    def __init__(self, period_s: float = 0.5) -> None:
        self.period_s = period_s
        self.timings: list[float] = []
        self.host_s = 0.0
        self.reference_s = 0.0
        self._in_loop = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.timings.append(_timed_loop())
        self._in_loop += time.perf_counter() - start

    def __enter__(self) -> "Sampled":
        self.timings = speed(2)
        self._in_loop = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.host_s = elapsed - self._in_loop
        self.timings += speed(2)
        self.reference_s = reference_seconds(self.host_s, self.timings)
