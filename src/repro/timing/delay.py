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

from dataclasses import dataclass, field

from repro.extraction.annotate import AnnotatedDesign
from repro.process.corners import Corner
from repro.recognition.conduction import ConductionPath
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


@dataclass
class CccPrices:
    """(FAST, SLOW) resistances already priced for one CCC's arcs.

    ``devices`` is keyed by device name and ``paths`` by a path's device
    tuple.  A conduction path lies on one arc per gate net it crosses,
    so sharing one memo across a CCC's arcs prices each device and each
    path once.  Names do not change when a device is resized, so a memo
    must not outlive the loop that builds it:
    :func:`~repro.timing.graph.build_timing_graph` makes one per CCC.
    """

    devices: dict[str, tuple[float, float]] = field(default_factory=dict)
    paths: dict[tuple[str, ...], tuple[float, float]] = field(
        default_factory=dict)


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

    def _path_bounds(self, path: ConductionPath,
                     prices: CccPrices) -> tuple[float, float]:
        """(FAST, SLOW) resistance of one path, device values read from
        each corner's shape table through ``prices.devices``."""
        fast = []
        slow = []
        for name in path.devices:
            device_prices = prices.devices.get(name)
            if device_prices is None:
                device = self._device_fast[name]
                device_prices = (self.fast.on_resistance(device),
                                 self.slow.on_resistance(device))
                prices.devices[name] = device_prices
            fast.append(device_prices[0])
            slow.append(device_prices[1])
        # Summed in sorted order so the result depends only on the
        # multiset of device resistances, never on device *names* --
        # which is what lets topologically identical bit-slices share
        # one bit-identical resistance via the arc-price cache.
        return sum(sorted(fast)), sum(sorted(slow))

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
        paths_through_input: list[ConductionPath],
        prices: CccPrices | None = None,
    ) -> tuple[float, float]:
        """(min, max) driver resistance over the given conduction paths.

        The load-independent half of :meth:`arc_delay`: min resistance
        at the FAST corner, max at the SLOW corner.  It is a pure
        function of the driver topology and device geometry, which
        makes it the cacheable unit shared by identical bit-slices
        (:mod:`repro.timing.arccache`).  ``prices`` is the memo shared
        by the arcs of one CCC; without one, the arc is priced alone.
        """
        if not paths_through_input:
            raise ValueError("arc needs at least one conduction path")
        if prices is None:
            prices = CccPrices()
        bounds = []
        for path in paths_through_input:
            path_prices = prices.paths.get(path.devices)
            if path_prices is None:
                path_prices = self._path_bounds(path, prices)
                prices.paths[path.devices] = path_prices
            bounds.append(path_prices)
        r_min = min(r_fast for r_fast, _ in bounds)
        r_max = max(r_slow for _, r_slow in bounds)
        return r_min, r_max

    def delay_from_drive(
        self, r_min: float, r_max: float, output_net: str
    ) -> ArcDelay:
        """Apply ``output_net``'s load to precomputed drive bounds --
        the per-arc half of :meth:`arc_delay`."""
        p = self.pessimism

        r_hi = r_max + self._wire_resistance(output_net, self.slow, maximal=True)
        c_max = self._load(output_net, self.slow, maximal=True)
        d_max = r_hi * c_max * (1.0 + SLEW_FRACTION) * p.effective_derate_max()

        r_lo = r_min + self._wire_resistance(output_net, self.fast, maximal=False)
        c_min = self._load(output_net, self.fast, maximal=False)
        d_min = r_lo * c_min * p.effective_derate_min()

        if d_min > d_max:  # possible only at scale 0 with rounding
            d_min = d_max
        return ArcDelay(d_min=d_min, d_max=d_max)

    def arc_delay(
        self,
        paths_through_input: list[ConductionPath],
        output_net: str,
    ) -> ArcDelay:
        """Bounded delay for a transition driven through any of the
        given conduction paths onto ``output_net``.

        Max delay: the *most resistive* path at the SLOW corner into the
        maximal load.  Min delay: the *least resistive* path at the FAST
        corner into the minimal load.
        """
        r_min, r_max = self.drive_bounds(paths_through_input)
        return self.delay_from_drive(r_min, r_max, output_net)

    def nominal_delay(self, paths: list[ConductionPath], output_net: str) -> float:
        """A single point estimate (geometric middle of the bounds)."""
        arc = self.arc_delay(paths, output_net)
        return (arc.d_min * arc.d_max) ** 0.5 if arc.d_min > 0 else arc.d_max / 2

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
