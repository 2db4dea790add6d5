"""Min/max arc delay calculation.

The delay model is switched-RC: the driving path's on-resistance times
the bounded output load, with corner-split drive (FAST devices for min,
SLOW for max) and Miller-bounded coupling on the load -- the section-4.3
recipe.  The model "must be accurate and, if necessary, error on the
side of being pessimistic"; derates from
:class:`~repro.timing.pessimism.PessimismSettings` enforce that.

A simple slew term is included: an RC output transition's effect on the
next stage is approximated by adding a fraction of the driving stage's
output time constant to the arc delay, which keeps long resistive nets
honest without full slew propagation.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.extraction.annotate import AnnotatedDesign
from repro.process.corners import Corner
from repro.recognition.conduction import PathSet
from repro.timing.pessimism import PessimismSettings


@dataclass(frozen=True)
class ArcDelay:
    """Bounded delay of one timing arc, in seconds."""

    d_min: float
    d_max: float

    def __post_init__(self) -> None:
        if self.d_min > self.d_max:
            raise ValueError(f"arc delay bounds inverted: {self.d_min} > {self.d_max}")


#: Fraction of the driver time-constant added as a slew penalty.
SLEW_FRACTION = 0.5


class ArcDelayCalculator:
    """Computes bounded delays for conduction-path-driven transitions.

    Parameters
    ----------
    fast / slow:
        Annotated designs at the FAST and SLOW corners (drive strengths
        and cap factors differ per corner).
    pessimism:
        The widening knobs.
    """

    def __init__(
        self,
        fast: AnnotatedDesign,
        slow: AnnotatedDesign,
        pessimism: PessimismSettings | None = None,
    ):
        if fast.corner is not Corner.FAST or slow.corner is not Corner.SLOW:
            raise ValueError("calculator expects FAST and SLOW annotated designs")
        # Pricing reads device geometry from FAST's netlist only, and
        # environment_key() pins SLOW's technology only: both corners
        # must annotate the same netlist on the same technology.
        if fast.flat is not slow.flat:
            raise ValueError("FAST and SLOW must annotate the same netlist")
        if fast.technology is not slow.technology:
            raise ValueError("FAST and SLOW must share one technology")
        self.fast = fast
        self.slow = slow
        self.pessimism = pessimism or PessimismSettings()
        self._device_fast = {t.name: t for t in fast.flat.transistors}

    # -- path resistance -----------------------------------------------------

    def device_resistances(
        self, names: Sequence[str],
    ) -> tuple[list[float], list[float]]:
        """(FAST, SLOW) on-resistance of each named device, read from
        each corner's shape table."""
        devices = list(map(self._device_fast.__getitem__, names))
        return (list(map(self.fast.on_resistance, devices)),
                list(map(self.slow.on_resistance, devices)))

    def path_resistances(
        self,
        paths: PathSet,
        devices: tuple[list[float], list[float]] | None = None,
    ) -> tuple[list[float], list[float]]:
        """(FAST, SLOW) resistance of each path in ``paths``, in its node
        order.

        A path's device resistances are added left to right in
        ascending order, so the result depends only on their multiset,
        never on device *names* -- which is what lets topologically
        identical bit-slices share one bit-identical resistance via the
        arc-price cache -- and not on the interpreter's ``sum``.
        ``devices`` is :meth:`device_resistances` of
        ``paths.device_names``, for a caller pricing many sets of one
        CCC.
        """
        if devices is None:
            devices = self.device_resistances(paths.device_names)
        fast, slow = devices
        return (paths.sums(fast, ascending=True),
                paths.sums(slow, ascending=True))

    def _load(self, net: str, design: AnnotatedDesign, maximal: bool) -> float:
        load = design.load(net)
        if maximal:
            return load.total_max(self.pessimism.effective_miller_max())
        return load.total_min(self.pessimism.effective_miller_min())

    def _wire_resistance(self, net: str, design: AnnotatedDesign, maximal: bool) -> float:
        wire = design.load(net).wire.resistance
        return wire.hi if maximal else wire.lo

    # -- public delay queries ------------------------------------------------------

    def drive_bounds(
        self,
        paths: Sequence[tuple[PathSet, Sequence[int] | None]],
        prices: PathPrices | None = None,
    ) -> tuple[float, float]:
        """(min, max) driver resistance over an arc's paths.

        ``paths`` is the arc's selection: ``(pair, rows)`` for each
        source pair it draws on, ``rows`` the positions of the arc's
        paths in the pair (:meth:`PathSet.rows_by_gate`) or None for all
        of them.  The load-independent half of :meth:`arc_delay`: min
        resistance at the FAST corner, max at the SLOW corner.  It is a
        pure function of the driver topology and device geometry, which
        makes it the cacheable unit shared by identical bit-slices
        (:mod:`repro.timing.arccache`).  ``prices`` is a
        :class:`PathPrices` shared by the caller's arcs; without one,
        the arc is priced alone.  Rows in an ``array`` -- the selection
        of a set large enough to be walked with numpy -- are read with
        numpy, from the pair's sums as arrays (:meth:`PathPrices.arrays`).
        """
        if prices is None:
            prices = PathPrices(self)
        lows: list[float] = []
        highs: list[float] = []
        for pair, rows in paths:
            if isinstance(rows, array):
                fast, slow = prices.arrays(pair)
                at = np.frombuffer(rows, np.intc)
                lows.append(fast[at].min().item())
                highs.append(slow[at].max().item())
                continue
            fast, slow = prices[pair]
            if rows is None:
                lows.append(min(fast))
                highs.append(max(slow))
            else:
                for row in rows:
                    lows.append(fast[row])
                    highs.append(slow[row])
        if not lows:
            raise ValueError("arc needs at least one conduction path")
        return min(lows), max(highs)

    def load_terms(self, output_net: str) -> tuple[float, ...]:
        """``output_net``'s half of :meth:`delay_from_drive`: (SLOW wire
        resistance, maximal load, max derate, FAST wire resistance,
        minimal load, min derate)."""
        p = self.pessimism
        return (self._wire_resistance(output_net, self.slow, maximal=True),
                self._load(output_net, self.slow, maximal=True),
                p.effective_derate_max(),
                self._wire_resistance(output_net, self.fast, maximal=False),
                self._load(output_net, self.fast, maximal=False),
                p.effective_derate_min())

    def delay_from_drive(
        self, r_min: float, r_max: float, output_net: str,
        terms: tuple[float, ...] | None = None,
    ) -> ArcDelay:
        """Apply ``output_net``'s load to precomputed drive bounds --
        the per-arc half of :meth:`arc_delay`.  ``terms`` is
        :meth:`load_terms` of ``output_net``, for a caller pricing many
        arcs into one net."""
        wire_hi, c_max, derate_max, wire_lo, c_min, derate_min = (
            terms if terms is not None else self.load_terms(output_net))
        d_max = (r_max + wire_hi) * c_max * (1.0 + SLEW_FRACTION) * derate_max
        d_min = (r_min + wire_lo) * c_min * derate_min
        if d_min > d_max:  # possible only at scale 0 with rounding
            d_min = d_max
        return ArcDelay(d_min=d_min, d_max=d_max)

    def arc_delay(
        self,
        paths: Sequence[tuple[PathSet, Sequence[int] | None]],
        output_net: str,
        prices: PathPrices | None = None,
    ) -> ArcDelay:
        """Bounded delay for a transition driven through any of the
        given conduction paths (a :meth:`drive_bounds` selection) onto
        ``output_net``.

        Max delay: the *most resistive* path at the SLOW corner into the
        maximal load.  Min delay: the *least resistive* path at the FAST
        corner into the minimal load.
        """
        r_min, r_max = self.drive_bounds(paths, prices)
        return self.delay_from_drive(r_min, r_max, output_net)

    # -- arc-price cache keys ------------------------------------------------

    def environment_key(self) -> tuple:
        """The environment component of an arc-price key.

        :meth:`drive_bounds` reads only the device models, which are
        functions of the technology object and the (fixed FAST/SLOW)
        corner enums, so pinning the technology by identity fixes every
        non-geometry input of the resistance computation.  Load and
        pessimism are applied per arc, outside the cache.
        """
        return (id(self.slow.technology),)


class PathPrices(dict):
    """:meth:`ArcDelayCalculator.path_resistances` by
    :class:`~repro.recognition.conduction.PathSet`, each set priced on
    its first lookup and each CCC's devices priced once.

    For a caller pricing many arcs over the same source pairs while no
    device changes -- a graph build shares one per CCC, and
    :func:`~repro.timing.graph.reprice_arcs` one per call.  A lookup of
    a set already priced is a plain dict lookup.
    """

    __slots__ = ("_calculator", "_devices", "_arrays")

    def __init__(self, calculator: ArcDelayCalculator) -> None:
        super().__init__()
        self._calculator = calculator
        self._devices: dict[int, tuple[list[float], list[float]]] = {}
        self._arrays: dict[PathSet, tuple[np.ndarray, np.ndarray]] = {}

    def arrays(self, paths: PathSet) -> tuple[np.ndarray, np.ndarray]:
        """``self[paths]`` as float64 arrays, summed with numpy the way
        a set too large to walk in Python is summed, and kept."""
        got = self._arrays.get(paths)
        if got is None:
            fast, slow = self._device_values(paths)
            got = self._arrays[paths] = (
                paths.sum_array(fast, ascending=True),
                paths.sum_array(slow, ascending=True))
        return got

    def _device_values(self, paths: PathSet) -> tuple[list[float],
                                                      list[float]]:
        # Keyed by the CCC's device-name list, which the sets priced
        # keep alive.
        names = paths.device_names
        devices = self._devices.get(id(names))
        if devices is None:
            devices = self._devices[id(names)] = (
                self._calculator.device_resistances(names))
        return devices

    def __missing__(self, paths: PathSet) -> tuple[list[float], list[float]]:
        sums = self[paths] = self._calculator.path_resistances(
            paths, self._device_values(paths))
        return sums
