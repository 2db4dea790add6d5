"""Waveform measurement: crossings, delays, slews.

The measurements the paper's designers pulled from SPICE decks: when a
node crosses 50% (delay), how long 10%..90% takes (edge rate / slew),
and the worst droop on a dynamic node (noise margin erosion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Waveform:
    """A sampled voltage waveform."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")

    def at(self, t: float) -> float:
        """Linear-interpolated value at a time."""
        return float(np.interp(t, self.times, self.values))

    def min_after(self, t: float) -> float:
        mask = self.times >= t
        return float(self.values[mask].min())


def crossing_time(
    wave: Waveform,
    threshold: float,
    rising: bool | None = None,
    after: float = 0.0,
    occurrence: int = 1,
) -> float | None:
    """Time of the Nth threshold crossing after a start time.

    ``rising=True`` counts only low-to-high crossings, ``False`` only
    high-to-low, ``None`` either.  Returns None if not found.
    """
    t, v = wave.times, wave.values
    count = 0
    for i in range(1, len(t)):
        if t[i] < after:
            continue
        v0, v1 = v[i - 1], v[i]
        crossed_up = v0 < threshold <= v1
        crossed_down = v0 > threshold >= v1
        if rising is True and not crossed_up:
            continue
        if rising is False and not crossed_down:
            continue
        if not (crossed_up or crossed_down):
            continue
        count += 1
        if count < occurrence:
            continue
        if v1 == v0:
            return float(t[i])
        frac = (threshold - v0) / (v1 - v0)
        return float(t[i - 1] + frac * (t[i] - t[i - 1]))
    return None


def delay_between(
    cause: Waveform,
    effect: Waveform,
    threshold: float,
    cause_rising: bool | None = None,
    effect_rising: bool | None = None,
    after: float = 0.0,
) -> float | None:
    """50%-to-50% style delay from a cause edge to the next effect edge."""
    t_cause = crossing_time(cause, threshold, rising=cause_rising, after=after)
    if t_cause is None:
        return None
    t_effect = crossing_time(effect, threshold, rising=effect_rising, after=t_cause)
    if t_effect is None:
        return None
    return t_effect - t_cause


def slew_time(
    wave: Waveform,
    v_low: float,
    v_high: float,
    rising: bool = True,
    after: float = 0.0,
) -> float | None:
    """10%-90% style transition time between two absolute levels."""
    if rising:
        t0 = crossing_time(wave, v_low, rising=True, after=after)
        if t0 is None:
            return None
        t1 = crossing_time(wave, v_high, rising=True, after=t0)
    else:
        t0 = crossing_time(wave, v_high, rising=False, after=after)
        if t0 is None:
            return None
        t1 = crossing_time(wave, v_low, rising=False, after=t0)
    if t1 is None:
        return None
    return t1 - t0
