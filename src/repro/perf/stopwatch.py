"""Monotonic wall-clock helpers shared by the perf counters and tracing.

Every subsystem that reports seconds (the battery's per-check timing,
the campaign trace, the benchmark harness) should measure them the same
way; :class:`Stopwatch` is that one way -- a ``perf_counter`` epoch fixed
at construction, never subject to wall-clock adjustment.
"""

from __future__ import annotations

import time


class Stopwatch:
    """Elapsed-seconds clock with a fixed monotonic epoch."""

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction (monotonic, never negative)."""
        return time.perf_counter() - self._t0
