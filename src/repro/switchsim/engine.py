"""The switch-level simulation engine.

Evaluation model
----------------
The design is partitioned into channel-connected components once, at
construction, and lowered into :class:`~repro.switchsim.tables.
PackedSwitchTables`: one row per (CCC, channel net) in sorted-net
order.  This engine stamps every CCC's conduction-path rows when it is
built -- per row, its paths to each *source* (vdd, gnd, and any
testbench-drivable port inside the CCC) with each path's series
conductance and gate conditions; devices never resize, so the values
are constant for the life of the simulator -- and solves every net by
walking them: it is the full-path oracle.  The same build feeds the
batched :class:`~repro.switchsim.vector.VectorSwitchSimulator`, which
stamps only the CCCs whose solves its reach test leaves open.

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
to exhaustive re-solving (``tests/oracles.py``'s
``ExhaustiveSwitchSimulator`` re-solves every net of every CCC, and the
property suite holds the two equal).  A bounded iteration count guards
against ring-oscillator-style non-settling structures.
"""

from __future__ import annotations

import heapq

from repro.netlist.flatten import FlatNetlist
from repro.switchsim.tables import PackedSwitchTables
from repro.switchsim.values import Logic, NetState

_EMPTY: frozenset[int] = frozenset()

#: The gate value that turns a device off, by its condition's required
#: level (0 for PMOS, 1 for NMOS).
_BLOCKS = (Logic.ONE, Logic.ZERO)


class OscillationError(RuntimeError):
    """Raised when the design fails to settle (combinational loop)."""


class SwitchSimulator:
    """Event-driven switch-level simulator over a flat netlist.

    This scalar engine is the authoritative semantics;
    :class:`~repro.switchsim.vector.VectorSwitchSimulator` batches the
    same solves with numpy and is bit-identical to it.

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
    tables:
        Pre-built :class:`PackedSwitchTables` for ``flat``, shareable
        between simulators; their fingerprint is checked against the
        netlist.  Without them, ``cache`` (a
        :class:`repro.perf.DesignCache`) hands out one build per
        unmutated netlist over its shared CCC extraction, and without
        either the tables are built here.
    """

    def __init__(self, flat: FlatNetlist, dominance_ratio: float = 2.5,
                 l_min_um: float = 0.35, record_history: bool = True,
                 tables: PackedSwitchTables | None = None, cache=None):
        if tables is None:
            if cache is not None:
                tables = cache.switch_tables(flat, l_min_um=l_min_um)
            else:
                tables = PackedSwitchTables.build(flat, l_min_um=l_min_um)
        elif not tables.matches(flat, l_min_um):
            raise ValueError(
                "packed switch tables are stale for this netlist (device "
                "geometry/topology changed since they were built); rebuild "
                "them or use DesignCache.switch_tables")
        self._tables = tables
        self.flat = flat
        self.dominance_ratio = dominance_ratio
        self.l_min_um = l_min_um
        self.record_history = record_history
        self.cccs = tables.cccs
        self.state: dict[str, NetState] = {
            name: NetState() for name in flat.nets
        }
        self.state["vdd"] = NetState(Logic.ONE, driven=True)
        self.state["gnd"] = NetState(Logic.ZERO, driven=True)
        self._externally_driven: dict[str, Logic] = {}
        self._gate_readers = tables.gate_readers
        self._port_cccs = tables.port_cccs
        self._net_cccs = tables.net_cccs
        # ccc index -> fan-in nets changed since its last evaluation.
        # None = never evaluated -> full solve.
        self._dirty: list[set[str] | None] = [None] * len(tables.cccs)
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
        self._lower_tables()

    @property
    def tables(self) -> PackedSwitchTables:
        return self._tables

    # -- construction -------------------------------------------------------

    def _lower_tables(self) -> None:
        """Stamp every CCC, then flat Python lists over the path store,
        which the per-net solve walks in table order: a row's paths are
        ``row_path_start[row]`` onward, ``row_path_count[row]`` of them,
        a path's conditions ``cond_ptr[p]:cond_ptr[p + 1]``.  Names
        stand in for net ids, so a solve reads :attr:`state` directly."""
        T = self._tables
        T.stamp(range(len(T.cccs)))
        names = T.net_names
        self._rows = [range(a, b) for a, b in zip(T.ccc_row_start.tolist(),
                                                  T.ccc_row_end.tolist())]
        self._row_paths = [range(a, a + c) for a, c in zip(
            T.row_path_start.tolist(), T.row_path_count.tolist())]
        self._path_src = [names[i] for i in T.path_src.tolist()]
        self._path_rail = T.path_src_rail.tolist()
        self._path_g = T.path_g.tolist()
        self._cond_ptr = T.cond_ptr.tolist()
        self._cond_gate = [names[i] for i in T.cond_gate.tolist()]
        self._cond_block = [_BLOCKS[level] for level in T.cond_level.tolist()]
        # ccc index -> trigger net -> rows whose solution reads it.
        self._affected = [{trigger: frozenset(rows.tolist())
                           for trigger, rows in aff.items()}
                          for aff in T.affected_rows]

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
        # Only CCCs with a pending disturbance (or never evaluated) can
        # change state; the rest would solve to their previous values,
        # so skipping them is behaviour-preserving.  An ascending list
        # is already a valid heap.
        heap = [i for i in range(n) if dirty[i] is None or dirty[i]]
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
        if dirty is None:
            to_solve = None  # never evaluated: solve every channel net
        else:
            to_solve = set()
            for trigger in dirty:
                to_solve |= affected.get(trigger, _EMPTY)
        changed: list[str] = []
        row_name = self._tables.row_name
        for row in self._rows[idx]:
            net = row_name[row]
            if net in self._externally_driven:
                continue  # testbench owns it
            counters["naive_net_solves"] += 1
            if to_solve is not None and row not in to_solve:
                counters["skip_count"] += 1
                continue
            counters["net_solves"] += 1
            counters["solve_count"] += 1
            new_state = self._solve_net(row, net)
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

    def _solve_net(self, row: int, net: str) -> NetState:
        # Definite (surely conducting) and maximal (possibly conducting
        # included) conductance toward each level, added in path order.
        # A maybe-path feeds the *maximal* bucket only: it cannot assert
        # a value, but a definite path must out-muscle it to win cleanly.
        def0 = def1 = may0 = may1 = 0.0
        poss0 = poss1 = definite_x = False
        state = self.state
        driven_ports = self._externally_driven
        path_src = self._path_src
        path_rail = self._path_rail
        path_g = self._path_g
        cond_ptr = self._cond_ptr
        cond_gate = self._cond_gate
        cond_block = self._cond_block
        X, ZERO = Logic.X, Logic.ZERO
        for p in self._row_paths[row]:
            src = path_src[p]
            if not path_rail[p] and src not in driven_ports:
                # A port the testbench is not driving is an *output*:
                # its value is computed, and must not back-drive its own
                # CCC as a stale source.
                continue
            # On, maybe (some gate at X), or off (some gate blocks).
            maybe = False
            for c in range(cond_ptr[p], cond_ptr[p + 1]):
                gate_value = state[cond_gate[c]].value
                if gate_value is cond_block[c]:
                    break
                if gate_value is X:
                    maybe = True
            else:
                src_value = state[src].value
                g = path_g[p]
                if src_value is X:
                    poss0 = poss1 = True
                    may0 += g
                    may1 += g
                    if not maybe:
                        definite_x = True
                elif src_value is ZERO:
                    poss0 = True
                    if maybe:
                        may0 += g
                    else:
                        def0 += g
                else:
                    poss1 = True
                    if maybe:
                        may1 += g
                    else:
                        def1 += g

        if def0 > 0.0 or def1 > 0.0:
            if def0 >= self.dominance_ratio * (def1 + may1) \
                    and not definite_x:
                return NetState(Logic.ZERO, driven=True)
            if def1 >= self.dominance_ratio * (def0 + may0) \
                    and not definite_x:
                return NetState(Logic.ONE, driven=True)
            return NetState(Logic.X, driven=True)
        if definite_x:
            return NetState(Logic.X, driven=True)
        previous = state[net].value
        if poss0 or poss1:
            if poss0 != poss1 and previous is (ZERO if poss0 else Logic.ONE):
                # The only possible disturbance agrees with the retained
                # value; keep it (still charge, not driven).
                return NetState(previous, driven=False)
            return NetState(Logic.X, driven=False)
        # Fully isolated: retain charge.
        return NetState(previous, driven=False)

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
