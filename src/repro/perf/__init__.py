"""Cross-cutting performance layer.

The paper is blunt that tool throughput is the methodology's lifeblood
("the speed of simulation is very important"; the farm exists because
designers iterate daily).  This package holds the pieces that keep the
verification loop fast without touching what any tool computes:

* :class:`DesignCache` -- per-netlist memo for recognition, parasitic
  extraction, and corner annotation, plus the shared classification
  memo, so a session verifying one design with many tools derives each
  artifact once;
* the perf counters every hot path maintains (see
  ``SwitchSimulator.counters``, ``RecognizedDesign.perf``,
  ``BatteryResult.per_check_seconds``, and the checkpoint store's
  ``ArtifactStore.counters`` -- ``store_hits`` / ``store_misses`` /
  ``store_writes`` / ``store_corrupt``) are aggregated for reports by
  :func:`collect_counters`; a resumed campaign's ``campaign_end`` trace
  event carries the store counters alongside the cache's;
* :mod:`repro.perf.metrics` declares each of those counters, and each
  exported series, once: kind, unit, canonical or not, HELP text.
"""

from repro.perf.cache import DesignCache, collect_counters
from repro.perf.stopwatch import Stopwatch

__all__ = ["DesignCache", "Stopwatch", "collect_counters"]
