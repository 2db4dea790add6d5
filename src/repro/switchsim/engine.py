"""The switch-level simulation engine.

Evaluation model
----------------
The design is partitioned into channel-connected components once, at
construction.  For every CCC and every channel net, the conduction paths
to each *source* (vdd, gnd, and any testbench-drivable port inside the
CCC) are pre-enumerated with :mod:`repro.recognition.conduction`, and
each path's series conductance is computed once -- devices never resize,
so the value is constant for the life of the simulator.

At each settle step, a CCC is (re)evaluated from its gate-input values:

* a path is **definitely on** when every gate condition holds with a
  definite value, **possibly on** when no condition definitely fails but
  some involve X;
* each channel net collects sources through its on-paths; definite
  conflicting sources resolve by conductance ratio (keepers lose to
  evaluate stacks, SRAM cells lose to write drivers) or to X when the
  fight is close;
* a net with no on-path to any source keeps its previous value with
  ``driven=False`` -- charge storage.

The outer loop is event-driven: a net value change re-queues every CCC
that reads the net through a gate.  The worklist is an index-heap with
lazy membership flags, so each pop costs O(log n) while preserving the
exact smallest-index-first order of the original set-based worklist.

Evaluation is *incremental*: each CCC tracks which of its fan-in nets
actually changed since it last evaluated, and re-solves only the channel
nets whose pre-computed dependency sets intersect those changes.  Nets
whose fan-in is untouched would solve to their previous state, so
skipping them leaves the final state and the history order bit-identical
to exhaustive re-solving (``incremental=False`` forces the exhaustive
mode for cross-checking).  A bounded iteration count guards against
ring-oscillator-style non-settling structures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.netlist.flatten import FlatNetlist
from repro.recognition.ccc import ChannelConnectedComponent, extract_cccs
from repro.recognition.conduction import (
    ConductionPath,
    conduction_paths,
    sweep_paths_to_target,
)
from repro.switchsim.values import Logic, NetState

_EMPTY: frozenset[str] = frozenset()


class OscillationError(RuntimeError):
    """Raised when the design fails to settle (combinational loop)."""


@dataclass
class _SourcePaths:
    """Pre-enumerated paths from one channel net to one source.

    ``conductances[i]`` is the constant series conductance of
    ``paths[i]``, computed once at construction.
    """

    source: str  # "vdd", "gnd", or a port name
    paths: tuple[ConductionPath, ...]
    conductances: list[float]


class SwitchSimulator:
    """Event-driven switch-level simulator over a flat netlist.

    Parameters
    ----------
    flat:
        The design to simulate.
    dominance_ratio:
        How much stronger one side of a fight must be to win cleanly;
        below this the node goes X.  2.5 matches the usual "keeper is a
        few times weaker" full-custom sizing discipline.
    l_min_um:
        Channel length assumed for devices with unresolved L (0.0),
        used only for relative conductance.
    record_history:
        When True (the default), every net value change is appended to
        :attr:`history` as ``(time, net, value)`` -- the record VCD
        export and the shadow simulator consume.  Long throughput runs
        (billions of events) should pass False: the history list grows
        without bound, one tuple per value change, and recording it
        costs both that memory and an append on the hottest path.
        Final state, determinism, and settle() return values are
        unaffected either way.
    incremental:
        When True (the default), a CCC evaluation re-solves only the
        channel nets whose fan-in changed since the CCC last evaluated.
        False forces exhaustive re-solving of every channel net -- the
        seed engine's behaviour, kept as a cross-check and kill switch.
        Both modes produce identical states and history.
    engine:
        ``"reference"`` (the default) is this pure-Python event-driven
        engine -- the authoritative semantics.  ``"vector"`` returns a
        :class:`~repro.switchsim.vector.VectorSwitchSimulator` instead:
        the numpy batched engine, bit-identical in states, history, and
        oscillation behaviour, and much faster on large designs.
    """

    def __new__(cls, *args, engine: str = "reference", **kwargs):
        if engine not in ("reference", "vector"):
            raise ValueError(f"unknown switch-sim engine {engine!r}; "
                             f"expected 'reference' or 'vector'")
        if engine == "vector" and cls is SwitchSimulator:
            from repro.switchsim.vector import VectorSwitchSimulator
            return object.__new__(VectorSwitchSimulator)
        return object.__new__(cls)

    def __init__(self, flat: FlatNetlist, dominance_ratio: float = 2.5,
                 l_min_um: float = 0.35, record_history: bool = True,
                 incremental: bool = True, engine: str = "reference",
                 cache=None):
        self.flat = flat
        self.dominance_ratio = dominance_ratio
        self.l_min_um = l_min_um
        self.record_history = record_history
        self.incremental = incremental
        # ``cache`` is a repro.perf.DesignCache: reuse its shared CCC
        # extraction (and the warm path caches living on those CCCs) so
        # table build, recognition, and this engine enumerate once.
        self.cccs = extract_cccs(flat) if cache is None else cache.cccs(flat)
        self.state: dict[str, NetState] = {
            name: NetState() for name in flat.nets
        }
        self.state["vdd"] = NetState(Logic.ONE, driven=True)
        self.state["gnd"] = NetState(Logic.ZERO, driven=True)
        self._externally_driven: dict[str, Logic] = {}
        # Relative path conductance: W/L weighted by carrier mobility
        # (holes are ~0.4x), so N-vs-P ratio fights resolve like silicon.
        self._conductance: dict[str, float] = {
            t.name: (1.0 if t.polarity == "nmos" else 0.4)
                    * t.w_um / t.effective_length(l_min_um)
            for t in flat.transistors
        }
        # ccc index -> channel net -> list of _SourcePaths
        self._paths: list[dict[str, list[_SourcePaths]]] = []
        self._gate_readers: dict[str, list[int]] = {}
        self._port_cccs: dict[str, list[int]] = {}
        # ccc index -> its channel nets in solve order (sorted once).
        self._sorted_nets: list[list[str]] = []
        # ccc index -> trigger net -> channel nets whose solution reads it.
        self._affected: list[dict[str, frozenset[str]]] = []
        # ccc index -> which ccc indices own each net as a channel net.
        self._net_cccs: dict[str, list[int]] = {}
        # ccc index -> fan-in nets changed since its last evaluation.
        # None = never evaluated -> full solve.
        self._dirty: list[set[str] | None] = []
        self._build_tables()
        self.time = 0
        self.history: list[tuple[int, str, Logic]] = []
        #: Cheap perf counters: ccc_evaluations, net_solves (actual),
        #: naive_net_solves (what exhaustive evaluation would have done),
        #: settle_calls.  ``solve_count`` mirrors ``net_solves`` and
        #: ``skip_count`` counts nets the dirty-set filter skipped, so
        #: BENCH deltas can attribute work avoided vs work done:
        #: ``solve_count + skip_count == naive_net_solves`` always.
        self.counters: dict[str, int] = {
            "ccc_evaluations": 0,
            "net_solves": 0,
            "naive_net_solves": 0,
            "settle_calls": 0,
            "solve_count": 0,
            "skip_count": 0,
        }

    # -- construction -------------------------------------------------------

    def _build_tables(self) -> None:
        for ccc in self.cccs:
            table: dict[str, list[_SourcePaths]] = {}
            affected: dict[str, set[str]] = {}
            sources = ["vdd", "gnd"] + sorted(
                n for n in ccc.channel_nets
                if self.flat.nets[n].is_port
            )
            # One target-rooted sweep per source fills the pair cache
            # for every channel net at once; the per-net queries below
            # then materialize from it.
            for src in sources:
                sweep_paths_to_target(ccc, src)
            for net in ccc.channel_nets:
                entries = []
                deps: set[str] = {net}
                for src in sources:
                    if src == net:
                        continue
                    paths = conduction_paths(ccc, net, src).paths()
                    if paths:
                        entries.append(_SourcePaths(
                            source=src,
                            paths=paths,
                            conductances=[self._path_conductance(p)
                                          for p in paths],
                        ))
                        if src not in ("vdd", "gnd"):
                            deps.add(src)
                        for p in paths:
                            deps.update(p.gates())
                table[net] = entries
                for trigger in deps:
                    affected.setdefault(trigger, set()).add(net)
            self._paths.append(table)
            self._sorted_nets.append(sorted(ccc.channel_nets))
            self._affected.append({t: frozenset(nets)
                                   for t, nets in affected.items()})
            self._dirty.append(None)
            for gate in ccc.gate_nets():
                self._gate_readers.setdefault(gate, []).append(ccc.index)
            for net in ccc.channel_nets:
                self._net_cccs.setdefault(net, []).append(ccc.index)
                if self.flat.nets[net].is_port:
                    self._port_cccs.setdefault(net, []).append(ccc.index)

    def _touch(self, net: str) -> None:
        """Record a testbench-side disturbance of ``net`` for the next
        settle: every CCC that reads it through a gate or owns it as a
        channel net must re-solve the dependent nets."""
        for idx in self._gate_readers.get(net, ()):
            dirty = self._dirty[idx]
            if dirty is not None:
                dirty.add(net)
        for idx in self._net_cccs.get(net, ()):
            dirty = self._dirty[idx]
            if dirty is not None:
                dirty.add(net)

    # -- testbench interface --------------------------------------------------

    def drive(self, net: str, value: Logic | int | bool) -> None:
        """Drive a port (or any net) from the testbench."""
        logic = self._coerce(value)
        if self._externally_driven.get(net) is logic:
            st = self.state.get(net)
            if st is not None and st.value is logic and st.driven:
                return  # re-driving the identical value: a no-op
        self._externally_driven[net] = logic
        self._set(net, logic, driven=True)
        self._touch(net)

    def release(self, net: str) -> None:
        """Stop driving a net; it retains its value as charge."""
        was_driven = self._externally_driven.pop(net, None) is not None
        st = self.state[net]
        if not was_driven and not st.driven:
            return  # already released: a no-op
        self.state[net] = NetState(st.value, driven=False)
        self._touch(net)

    def value(self, net: str) -> Logic:
        return self.state[net].value

    def is_driven(self, net: str) -> bool:
        return self.state[net].driven

    def values(self, nets: list[str]) -> list[Logic]:
        return [self.value(n) for n in nets]

    def settle(self, max_events: int = 100000) -> int:
        """Propagate until quiescent; returns evaluation count.

        Raises :class:`OscillationError` if the budget is exhausted.
        """
        n = len(self.cccs)
        gate_readers = self._gate_readers
        port_cccs = self._port_cccs
        dirty = self._dirty
        if self.incremental:
            # Only CCCs with a pending disturbance (or never evaluated)
            # can change state; the rest would solve to their previous
            # values, so skipping them is behaviour-preserving.
            heap = [i for i in range(n) if dirty[i] is None or dirty[i]]
        else:
            heap = list(range(n))
        # An ascending list is already a valid heap.
        in_pending = [False] * n
        for i in heap:
            in_pending[i] = True
        evaluations = 0
        while heap:
            idx = heapq.heappop(heap)
            if not in_pending[idx]:
                continue
            in_pending[idx] = False
            evaluations += 1
            if evaluations > max_events:
                raise OscillationError(
                    f"design did not settle within {max_events} CCC "
                    f"evaluations; combinational loop suspected"
                )
            changed = self._evaluate(idx)
            for net in changed:
                for r in gate_readers.get(net, ()):
                    d = dirty[r]
                    if d is not None:
                        d.add(net)
                    if not in_pending[r]:
                        in_pending[r] = True
                        heapq.heappush(heap, r)
                for r in port_cccs.get(net, ()):
                    d = dirty[r]
                    if d is not None:
                        d.add(net)
                    if not in_pending[r]:
                        in_pending[r] = True
                        heapq.heappush(heap, r)
        self.time += 1
        self.counters["ccc_evaluations"] += evaluations
        self.counters["settle_calls"] += 1
        return evaluations

    def step(self, **drives: Logic | int | bool) -> None:
        """Drive several nets and settle -- one testbench "step"."""
        for net, value in drives.items():
            self.drive(net, value)
        self.settle()

    # -- evaluation ------------------------------------------------------------

    def _evaluate(self, idx: int) -> list[str]:
        counters = self.counters
        dirty = self._dirty[idx]
        self._dirty[idx] = set()
        affected = self._affected[idx]
        if dirty is None or not self.incremental:
            to_solve = None  # exhaustive: solve every channel net
        else:
            to_solve = set()
            for trigger in dirty:
                to_solve |= affected.get(trigger, _EMPTY)
        changed: list[str] = []
        for net in self._sorted_nets[idx]:
            if net in self._externally_driven:
                continue  # testbench owns it
            counters["naive_net_solves"] += 1
            if to_solve is not None and net not in to_solve:
                counters["skip_count"] += 1
                continue
            counters["net_solves"] += 1
            counters["solve_count"] += 1
            new_state = self._solve_net(idx, net)
            old = self.state[net]
            if new_state.value != old.value or new_state.driven != old.driven:
                self.state[net] = new_state
                if new_state.value != old.value:
                    if self.record_history:
                        self.history.append((self.time, net, new_state.value))
                    changed.append(net)
                    if to_solve is not None:
                        # A mid-pass change may open paths for nets later
                        # in this pass, exactly as exhaustive solving
                        # would see; earlier nets are caught by requeue.
                        to_solve |= affected.get(net, _EMPTY)
        return changed

    def _solve_net(self, idx: int, net: str) -> NetState:
        # Definite (surely conducting) and maximal (possibly conducting
        # included) conductance toward each level.  A maybe-path feeds
        # the *maximal* bucket only: it cannot assert a value, but a
        # definite path must out-muscle it to win cleanly.
        g_def = {Logic.ZERO: 0.0, Logic.ONE: 0.0}
        g_may = {Logic.ZERO: 0.0, Logic.ONE: 0.0}
        possible: set[Logic] = set()
        definite_x = False

        for entry in self._paths[idx].get(net, []):
            src_state = self.state[entry.source]
            if entry.source not in ("vdd", "gnd") \
                    and entry.source not in self._externally_driven:
                # A port the testbench is not driving is an *output*:
                # its value is computed, and must not back-drive its own
                # CCC as a stale source.
                continue
            src_value = src_state.value
            for path, g in zip(entry.paths, entry.conductances):
                status = self._path_status(path)
                if status == "off":
                    continue
                if src_value is Logic.X:
                    possible.update((Logic.ZERO, Logic.ONE))
                    g_may[Logic.ZERO] += g
                    g_may[Logic.ONE] += g
                    if status == "on":
                        definite_x = True
                elif status == "on":
                    g_def[src_value] += g
                    possible.add(src_value)
                else:
                    g_may[src_value] += g
                    possible.add(src_value)

        total0 = g_def[Logic.ZERO] + g_may[Logic.ZERO]
        total1 = g_def[Logic.ONE] + g_may[Logic.ONE]
        if g_def[Logic.ZERO] > 0.0 or g_def[Logic.ONE] > 0.0:
            if g_def[Logic.ZERO] >= self.dominance_ratio * total1 \
                    and not definite_x:
                return NetState(Logic.ZERO, driven=True)
            if g_def[Logic.ONE] >= self.dominance_ratio * total0 \
                    and not definite_x:
                return NetState(Logic.ONE, driven=True)
            return NetState(Logic.X, driven=True)
        if definite_x:
            return NetState(Logic.X, driven=True)
        if possible:
            previous = self.state[net].value
            if possible == {previous}:
                # The only possible disturbance agrees with the retained
                # value; keep it (still charge, not driven).
                return NetState(previous, driven=False)
            return NetState(Logic.X, driven=False)
        # Fully isolated: retain charge.
        prev = self.state[net]
        return NetState(prev.value, driven=False)

    def _path_status(self, path: ConductionPath) -> str:
        """'on' / 'off' / 'maybe' under current gate values."""
        maybe = False
        state = self.state
        for gate, level in path.conditions:
            gv = state[gate].value
            if gv is Logic.X:
                maybe = True
                continue
            if (gv is Logic.ONE) != level:
                return "off"
        return "maybe" if maybe else "on"

    def _path_conductance(self, path: ConductionPath) -> float:
        inv_total = 0.0
        for dev in path.devices:
            g = self._conductance[dev]
            if g <= 0:
                return 0.0
            inv_total += 1.0 / g
        return 1.0 / inv_total if inv_total else float("inf")

    # -- helpers ------------------------------------------------------------------

    def _coerce(self, value: Logic | int | bool) -> Logic:
        if isinstance(value, Logic):
            return value
        if isinstance(value, bool):
            return Logic.from_bool(value)
        return Logic.from_int(value)

    def _set(self, net: str, value: Logic, driven: bool) -> None:
        old = self.state.get(net)
        self.state[net] = NetState(value, driven)
        if (old is None or old.value != value) and self.record_history:
            self.history.append((self.time, net, value))
