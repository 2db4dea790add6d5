"""Small numeric and digest helpers shared by the benchmark's commands."""

from __future__ import annotations

import hashlib
import math
import statistics


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default method; one sample is its own
    percentile, and an empty sequence is an error.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median.

    The same quartiles as ``statistics.quantiles(values, n=4)``, which
    is how the benchmark's steadiness is judged.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def masked_digest(text: str, name: str) -> str:
    """Digest of a canonical report with the design name masked.

    Service designs differ only in name, so masking it lets one
    committed digest stand for every design of the workload.
    """
    if not name:
        raise ValueError("cannot mask an empty design name")
    return sha256_text(text.replace(name, "<design>"))
