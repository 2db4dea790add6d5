"""Arrival propagation, critical paths, races, and cycle-time search.

Figure 4's two deliverables:

* **critical paths** -- max-arrival chains that bound the clock
  frequency; reported with slack against the transparent phase window,
  and invertible into a minimum cycle time;
* **races** -- min-arrival chains that violate hold at storage nodes or
  discharge dynamic nodes during precharge; their margins do NOT change
  with the clock period, which is why the paper calls them the paths
  that "prevent the chip from working at any frequency".

False-path elimination (section 4.3's third false-violation culprit) is
supported by declaring *through-net* exclusions, the designer-intent
input the paper says tools cannot infer.

The analyzer is **incremental**: after a full propagation, a handful of
re-priced arcs (a sizing step, a parasitic refresh) re-propagates only
the affected fan-out cone in level order, pruning wherever a recomputed
window is unchanged.  The recompute applies the exact full-propagation
formula to the exact same operands in the same order, so incremental
windows are bit-identical to a from-scratch ``verify()`` -- the same
contract as the incremental switch simulator, pinned by the property
suite in ``tests/property/test_incremental_sta.py``.  Any change the
cone logic cannot prove local (new arcs, an edited false-path set, a
different clock skew) silently falls back to full propagation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.recognition.recognizer import NetKind, RecognizedDesign
from repro.timing.clocking import TwoPhaseClock
from repro.timing.constraints import Constraint, ConstraintKind
from repro.timing.graph import DelayArc, TimingGraph


@dataclass(frozen=True)
class ArrivalWindow:
    """Earliest/latest possible transition time of a net."""

    t_min: float
    t_max: float


@dataclass
class TimingPath:
    """One traced max-delay path."""

    endpoint: str
    arrival_s: float
    slack_s: float
    nets: list[str] = field(default_factory=list)

    def violated(self) -> bool:
        # A femtosecond of numerical noise is not a violation.
        return self.slack_s < -1e-15


@dataclass
class RaceViolation:
    """One failed min-delay (hold/precharge) check."""

    constraint: Constraint
    margin_s: float
    note: str


@dataclass
class TimingReport:
    """Everything one verification run produced."""

    arrivals: dict[str, ArrivalWindow]
    critical_paths: list[TimingPath]
    races: list[RaceViolation]
    min_cycle_time_s: float
    setup_violations: list[TimingPath] = field(default_factory=list)

    def worst_slack(self) -> float:
        if not self.critical_paths:
            return float("inf")
        return min(p.slack_s for p in self.critical_paths)

    def max_frequency_hz(self) -> float:
        return 1.0 / self.min_cycle_time_s if self.min_cycle_time_s > 0 else float("inf")


class TimingAnalyzer:
    """Drives static timing verification runs, full or incremental."""

    def __init__(
        self,
        design: RecognizedDesign,
        graph: TimingGraph,
        clock: TwoPhaseClock,
        constraints: list[Constraint],
    ):
        self.design = design
        self.graph = graph
        self.clock = clock
        self.constraints = constraints
        self._false_through: set[str] = set()
        # Incremental-propagation state: the windows and source seeds of
        # the last propagation, plus the exact configuration they were
        # computed under.  A configuration or structure mismatch forces
        # a full re-propagation.
        self._windows: dict[str, ArrivalWindow] | None = None
        self._seeds: dict[str, ArrivalWindow] = {}
        self._propagated_config: tuple | None = None
        self._endpoints: list[str] | None = None
        self._endpoints_key: tuple | None = None
        self._counters: dict[str, int] = {
            "sta_full_propagations": 0,
            "sta_incremental_propagations": 0,
            "sta_nets_propagated": 0,
            "sta_nets_repropagated": 0,
            "sta_cones_repropagated": 0,
            "sta_endpoint_cache_hits": 0,
        }

    # -- designer intent -------------------------------------------------------

    def declare_false_through(self, *nets: str) -> None:
        """Exclude paths through these nets (architecturally false)."""
        self._false_through.update(nets)

    # -- arrival propagation ------------------------------------------------------

    def _source_seeds(self) -> dict[str, ArrivalWindow]:
        """Arrival seeds: clock roots, carrying +/- skew, and INPUT
        ports, arriving at time zero."""
        seeds: dict[str, ArrivalWindow] = {}
        skew = self.clock.skew_s
        for name, clock_net in self.design.clocks.items():
            if clock_net.depth == 0:
                seeds[name] = ArrivalWindow(0.0, skew)
        for net in self.design.nets_of_kind(NetKind.INPUT):
            seeds.setdefault(net, ArrivalWindow(0.0, 0.0))
        return seeds

    def _config(self) -> tuple:
        """Everything besides arc delays that arrival windows depend on."""
        return (
            self.graph.structure_version,
            self.clock.skew_s,
            frozenset(self._false_through),
        )

    def _recompute_window(
        self,
        net: str,
        windows: dict[str, ArrivalWindow],
        seeds: dict[str, ArrivalWindow],
    ) -> ArrivalWindow | None:
        """One net's window from its fan-in -- the propagation formula.

        Mirrors the full-propagation loop body operand for operand
        (same filtering, same reduction order, same seed merge), which
        is what makes incremental results bit-identical.
        """
        fanin = [a for a in self.graph.fanin.get(net, [])
                 if a.src in windows
                 and a.src not in self._false_through
                 and net not in self._false_through]
        if not fanin:
            return seeds.get(net)
        t_min = min(windows[a.src].t_min + a.d_min for a in fanin)
        t_max = max(windows[a.src].t_max + a.d_max for a in fanin)
        seed = seeds.get(net)
        if seed is not None:
            t_min = min(t_min, seed.t_min)
            t_max = max(t_max, seed.t_max)
        return ArrivalWindow(t_min=t_min, t_max=t_max)

    def arrivals(self, incremental: bool = False) -> dict[str, ArrivalWindow]:
        """Propagate arrival windows from sources through the arc graph.

        ``incremental=True`` reuses the previous propagation and only
        re-propagates the fan-out cones of arcs re-priced since (falling
        back to a full pass when no previous result is reusable).  The
        returned mapping is always a fresh dict.
        """
        config = self._config()
        if (incremental and self._windows is not None
                and config == self._propagated_config):
            self._propagate_cones(self.graph.take_dirty_dsts())
        else:
            self._propagate_full()
            self._propagated_config = config
            self.graph.take_dirty_dsts()  # consumed by the full pass
        return dict(self._windows)  # type: ignore[arg-type]

    def _propagate_full(self) -> None:
        seeds = self._source_seeds()
        windows: dict[str, ArrivalWindow] = dict(seeds)
        for net in self.graph.topo_order():
            computed = self._recompute_window(net, windows, seeds)
            if computed is not None:
                windows[net] = computed
            self._counters["sta_nets_propagated"] += 1
        self._windows = windows
        self._seeds = seeds
        self._counters["sta_full_propagations"] += 1

    def _propagate_cones(self, dirty: set[str]) -> None:
        """Re-propagate the fan-out cones of the dirty nets, level order.

        Every arc points strictly up-level, so a (level, name) heap pops
        each net only after all its re-propagated predecessors settled;
        propagation prunes at nets whose recomputed window is unchanged
        (float-exact, so pruning never alters the result).
        """
        windows = self._windows
        assert windows is not None
        seeds = self._seeds
        levels = self.graph.levels()
        heap = [(levels[n], n) for n in dirty if n in levels]
        heapq.heapify(heap)
        done: set[str] = set()
        self._counters["sta_incremental_propagations"] += 1
        self._counters["sta_cones_repropagated"] += len(heap)
        while heap:
            _, net = heapq.heappop(heap)
            if net in done:
                continue
            done.add(net)
            self._counters["sta_nets_repropagated"] += 1
            computed = self._recompute_window(net, windows, seeds)
            if computed == windows.get(net):
                continue  # cone converged here
            if computed is None:
                windows.pop(net, None)
            else:
                windows[net] = computed
            for arc in self.graph.fanout.get(net, []):
                if arc.dst not in done:
                    heapq.heappush(heap, (levels[arc.dst], arc.dst))

    # -- path tracing ------------------------------------------------------------

    def _trace_back(self, endpoint: str, windows: dict[str, ArrivalWindow]) -> list[str]:
        """The max-arrival path ending at ``endpoint``."""
        nets = [endpoint]
        seen = {endpoint}
        current = endpoint
        while True:
            fanin = [a for a in self.graph.fanin.get(current, []) if a.src in windows]
            if not fanin:
                break
            best = max(fanin, key=lambda a: windows[a.src].t_max + a.d_max)
            if best.src in seen:
                break  # safety against residual loops
            nets.append(best.src)
            seen.add(best.src)
            current = best.src
        nets.reverse()
        return nets

    # -- verification -----------------------------------------------------------------

    def endpoints(self) -> list[str]:
        """Setup endpoints: storage nodes, dynamic nodes, output ports.

        Cached per (design, graph structure): the scan over every flat
        net runs once, not once per ``verify()``.
        """
        key = (id(self.design), self.graph.structure_version)
        if self._endpoints is not None and self._endpoints_key == key:
            self._counters["sta_endpoint_cache_hits"] += 1
            return self._endpoints
        out = {s.net for s in self.design.storage}
        out |= set(self.design.dynamic_nodes)
        for net in self.design.flat.nets.values():
            if net.is_port and not net.is_rail:
                out.add(net.name)
        self._endpoints = sorted(out)
        self._endpoints_key = key
        return self._endpoints

    def counters(self) -> dict[str, int]:
        """Propagation/cache counters, merged with the graph's."""
        merged = dict(self._counters)
        merged.update(self.graph.counters())
        return merged

    def verify(self, incremental: bool = False) -> TimingReport:
        """One verification run.

        ``incremental=True`` reuses the previous arrival propagation
        where the dirty-cone logic proves it sound; the report is
        guaranteed bit-identical to ``verify()`` on the same state.
        """
        windows = self.arrivals(incremental=incremental)
        phase = self.clock.phase_width_s
        setup_margins = {
            c.net: c.margin_s for c in self.constraints
            if c.kind is ConstraintKind.SETUP
        }

        paths: list[TimingPath] = []
        for endpoint in self.endpoints():
            window = windows.get(endpoint)
            if window is None:
                continue
            margin = setup_margins.get(endpoint, 0.0)
            slack = phase - window.t_max - margin
            paths.append(TimingPath(
                endpoint=endpoint,
                arrival_s=window.t_max,
                slack_s=slack,
                nets=self._trace_back(endpoint, windows),
            ))
        paths.sort(key=lambda p: p.slack_s)

        races: list[RaceViolation] = []
        for constraint in self.constraints:
            if constraint.kind is ConstraintKind.HOLD:
                window = windows.get(constraint.net)
                if window is None:
                    continue
                margin = window.t_min - (self.clock.skew_s + constraint.margin_s)
                if margin < 0:
                    races.append(RaceViolation(
                        constraint=constraint,
                        margin_s=margin,
                        note=f"min arrival {window.t_min * 1e12:.1f} ps does not "
                             f"clear skew {self.clock.skew_s * 1e12:.1f} ps + hold "
                             f"{constraint.margin_s * 1e12:.1f} ps",
                    ))
            elif constraint.kind is ConstraintKind.PRECHARGE_RACE:
                window = windows.get(constraint.net)
                if window is None:
                    continue
                pre = [a for a in self.graph.fanin.get(constraint.net, [])
                       if a.kind == "precharge"]
                if not pre:
                    continue
                precharge_done = max(a.d_max for a in pre) + self.clock.skew_s
                eval_arcs = [a for a in self.graph.fanin.get(constraint.net, [])
                             if a.kind == "evaluate" and a.src in windows]
                if not eval_arcs:
                    continue
                earliest_discharge = min(windows[a.src].t_min + a.d_min
                                         for a in eval_arcs)
                margin = earliest_discharge - precharge_done - constraint.margin_s
                if margin < 0:
                    races.append(RaceViolation(
                        constraint=constraint,
                        margin_s=margin,
                        note=f"evaluate can discharge at "
                             f"{earliest_discharge * 1e12:.1f} ps while precharge "
                             f"needs {precharge_done * 1e12:.1f} ps",
                    ))

        worst_requirement = 0.0
        for path in paths:
            margin = setup_margins.get(path.endpoint, 0.0)
            worst_requirement = max(worst_requirement, path.arrival_s + margin)
        min_cycle = 2.0 * (worst_requirement + self.clock.non_overlap_s)

        return TimingReport(
            arrivals=windows,
            critical_paths=paths,
            races=races,
            min_cycle_time_s=min_cycle,
            setup_violations=[p for p in paths if p.violated()],
        )
