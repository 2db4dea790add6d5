"""Service counters.

:class:`ServiceMetrics` is the front end's scoreboard, mutated only on
the event loop (one writer, no locks) -- the service-layer sibling of
:class:`repro.fleet.metrics.FleetMetrics`, which keeps counting the
pool underneath.  The ``metrics`` op exports it, with the tenant,
verdict-cache and store series, through
:func:`repro.perf.metrics.prometheus_text`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class ServiceMetrics:
    """Counters for one service process, updated on the event loop."""

    submissions: int = 0      # every submit request seen
    admitted: int = 0         # entered a tenant queue
    rejected: int = 0         # refused with backpressure
    cache_hits: int = 0       # answered from the verdict cache
    coalesced: int = 0        # joined an in-flight duplicate
    launched: int = 0         # handed to the fleet pool
    sealed: int = 0           # reports delivered
    failed: int = 0           # campaigns the fleet abandoned

    def to_dict(self) -> dict:
        return asdict(self)
