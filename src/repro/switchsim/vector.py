"""Numpy-batched switch-level simulation engine.

:class:`VectorSwitchSimulator` is a drop-in replacement for the
reference :class:`~repro.switchsim.engine.SwitchSimulator` -- same
constructor, same testbench interface, same :class:`Logic` results,
same history stream, same oscillation detection -- that replaces the
reference's per-net walk of the
:class:`~repro.switchsim.tables.PackedSwitchTables` both engines read
with batched numpy array ops over the same arrays, where a batch pays
for itself.  It is built to be **bit-identical** to the reference
engine, not merely equivalent; the reference stays authoritative and
the equivalence is property-tested
(``tests/switchsim/test_vector_equivalence.py``).

Two levels of batching recover the reference's strictly sequential
semantics:

**Speculative frontier scheduling (across CCCs).**  The reference pops
one CCC at a time from a smallest-index-first worklist.  Here, every
pending CCC is evaluated *speculatively* in one pass against the
current state, then results are applied one CCC at a time in exactly
the reference's pop order.  Before applying a CCC's result we check
its dirty-version counter: any disturbance recorded since the
speculation (a gate or port input changed by an earlier apply) bumps
the counter and the stale result is discarded, falling back to a fresh
speculation pass.  A surviving result provably read nothing any earlier
apply wrote: cross-CCC influence flows only through gate/port nets,
every such write bumps the reader's version, and external nets are read
from the pre-pass base state (see ``cond_internal`` in the tables), so
applying a surviving result is exactly what the reference would have
computed at that point.

**Wave-leveled solving (within one CCC evaluation).**  Inside one
evaluation the reference solves channel nets in sorted order with
mid-pass visibility.  The packed tables levelize that order into static
*waves* such that solving whole waves at once observes exactly the
sequential intermediate states; mid-pass expansions (a changed net
opening paths for later nets) always target strictly greater waves, so
the wave sweep picks them up like the sequential pass would.

**Small CCCs in Python, large ones batched.**  A speculated CCC reads
only its own channel nets from the pass's overlay and everything else
from committed state, so the CCCs of a pass are independent, and each
can be evaluated on its own.  A CCC with fewer than
:data:`_NUMPY_MIN_DEVICES` live devices is: in plain Python
(:meth:`VectorSwitchSimulator._settle_small`), on Python lists of the
tables' per-row and per-device columns built once per simulator, and
on its path rows read from the tables' arrays when a row is solved,
because a numpy pass costs a fixed few hundred microseconds that such
a CCC's whole evaluation does not.  The larger CCCs of a pass share
one batched numpy pass: its wave queue is a boolean mask over their
rows, and each pop takes the queued rows of the lowest wave with one
``flatnonzero`` -- ascending and each once, with no sort -- for all of
them together.  Which branch evaluates a CCC changes no result and no
counter: the speculation schedule is the same either way.

**Reach first, rows for fights.**  Most solves need no conduction
path: which source levels reach a net decides them.  Each wave reads
its CCCs' live devices as on, off or X -- a gate inside the device's
own CCC read from the speculative overlay, any other from committed
state, as the tables split conditions -- and propagates the source
levels {0, 1, X} over them as 6-bit node masks, once through on
devices (ON) and once through on-or-X devices (MAY): vdd, gnd and the
ports the testbench holds are the sources, rails end paths, and ports
are passed through, exactly the rules of the tables' path sweeps.
With ``prev`` the net's current value:

* X in ON: X, driven (a definitely-on path from an X source);
* ON = {0} and MAY within {0}: 0, driven; likewise for 1;
* ON empty, and ``prev`` is X or MAY within {prev}: ``prev``, undriven.

ON is exact, since on devices cannot contradict one another, while
MAY may hold levels whose only paths need a gate at both levels,
which the tables prune; the rule only ever reads MAY as an upper
bound.  Every other row -- a definite fight, a may-reach the pruning
might remove, and every row of a CCC whose tables flag it
``rows_only`` -- reads its stamped conduction-path rows, stamped into
its CCC on first need, and is solved by the path sums below, each
condition read with the same overlay/committed split.  No per-path
state follows gate changes; a batched solve only remembers, per path,
the condition last found blocking it, which it reads first.

The path sums add each row's path conductances in path order, the
reference's float addition order, hence bit-identical totals: a small
CCC's row solve walks the paths one by one as
:meth:`SwitchSimulator._solve_net` does, and the batched solve uses
masked ``np.bincount`` segment sums, which accumulate in array order.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.switchsim.engine import OscillationError, SwitchSimulator
from repro.switchsim.tables import csr_gather
from repro.switchsim.values import Logic, NetState

_LOGIC = (Logic.ZERO, Logic.ONE, Logic.X)

#: Live devices from which a CCC's speculative evaluation joins the
#: pass's batched numpy solve; a smaller CCC is settled on its own in
#: plain Python.  The conduction sweep's size rule (its
#: ``_BFS_MIN_DEVICES``): numpy's fixed cost per pass outweighs a small
#: CCC's whole evaluation, while a Python evaluation of a 448-device
#: bus CCC costs more than a batched pass.  Read at call time.
_NUMPY_MIN_DEVICES = 48

#: Reach bits of a node: the source levels 0, 1, X reaching it through
#: on devices in bits 0-2 (ON), through on-or-X devices in bits 3-5
#: (MAY).  A source of level ``v`` sets ``_BOTH << v``.
_BOTH = np.uint8(9)

#: Which reach bits a device passes, by ``level * 3 + gate value``: all
#: when on, the MAY half at X, none when off.  Level 2 is a device a
#: rail gates on, whatever its gate slot reads.
_PASS = np.array([63, 0, 56, 0, 63, 56, 63, 63, 63], np.uint8)
_PASS_LIST = _PASS.tolist()


def _decision_table() -> np.ndarray:
    """Reach's verdict on a row, by ``reach bits * 3 + prev``: the new
    value plus 3 when driven, or -1 when the row's paths must decide
    (the rule in the module docstring)."""
    table = np.full(64 * 3, -1, np.int8)
    for bits in range(64):
        on, may = bits & 7, bits >> 3
        for prev in range(3):
            if on & 4:
                table[bits * 3 + prev] = 2 + 3
            elif on in (1, 2) and may == on:
                table[bits * 3 + prev] = on - 1 + 3
            elif not on and (prev == 2 or not may & ~(1 << prev)):
                table[bits * 3 + prev] = prev
    return table


_DECIDE = _decision_table()
_DECIDE_LIST = _DECIDE.tolist()


class VectorSwitchSimulator(SwitchSimulator):
    """Batched numpy engine behind the :class:`SwitchSimulator` API.

    Same constructor: ``tables=`` shares a pre-built
    :class:`~repro.switchsim.tables.PackedSwitchTables` (see
    :meth:`repro.perf.DesignCache.switch_tables`), checked against the
    netlist's fingerprint.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        T = self._tables
        # Numpy mirror of self.state, kept in lockstep: the state dict
        # stays authoritative for all API reads, the arrays feed the
        # solves.
        self._val = np.full(T.n_nets, 2, np.int8)
        self._driven = np.zeros(T.n_nets, bool)
        self._ext = np.zeros(T.n_nets, bool)
        for rail, level in (("vdd", 1), ("gnd", 0)):
            rid = T.net_ids[rail]
            self._val[rid] = level
            self._driven[rid] = True
        # Per stamped path, the condition last found blocking it (-1:
        # none yet): a hint that only orders the batched solves' reads.
        self._watch = np.empty(0, np.int64)
        # Reach scratch per row, all zero between passes, and each row's
        # source bits while the testbench holds it as a port (see _reach).
        self._bits = np.zeros(T.n_rows, np.uint8)
        self._held = np.zeros(T.n_rows, np.uint8)
        self._net_row = np.full(T.n_nets, -1, np.int64)
        self._net_row[T.row_net] = np.arange(T.n_rows)
        # Per CCC, as Python ints for the per-CCC path: its rows are
        # row_ptr[i]:row_ptr[i + 1], its live devices likewise in
        # dev_ptr.  CCC row ranges are contiguous and in CCC order.
        self._row_ptr = T.ccc_row_start.tolist() + [T.n_rows]
        self._dev_ptr = T.dev_ptr.tolist()
        self._rows_only = T.ccc_rows_only.tolist()
        self._wave = T.row_wave.tolist()
        # Per row, the mid-pass expansion rows as positions in its CCC.
        first = T.ccc_row_start[T.row_ccc]
        self._later_ptr = T.aff_later_ptr.tolist()
        self._later = (T.aff_later_rows - np.repeat(
            first, np.diff(T.aff_later_ptr))).tolist()
        # Per live device, positions in its CCC: a channel end, the
        # other end or -1 - the rail's net, and the gate when it is a
        # channel net of the CCC, else -1 - the gate's net (net 0 for a
        # device a rail gates on, whose level 2 ignores the gate).
        dev_first = np.repeat(T.ccc_row_start, np.diff(T.dev_ptr))
        self._dev_a = (T.dev_a - dev_first).tolist()
        self._dev_far = np.where(T.dev_b >= 0, T.dev_b - dev_first,
                                 -1 - T.dev_rail).tolist()
        self._dev_gate = np.where(
            T.dev_internal, self._net_row[T.dev_gate] - dev_first,
            -1 - np.maximum(T.dev_gate, 0)).tolist()
        self._dev_level3 = (T.dev_level.astype(np.int64) * 3).tolist()
        # Bumped on *every* disturbance of a CCC's fan-in -- including
        # ones that land while its dirty set is None -- so speculative
        # results can detect staleness exactly.
        self._dirty_version = [0] * len(T.cccs)
        # vector-only: speculative passes run, and speculative CCC
        # results discarded as stale (pure waste, never wrong); applied
        # solves decided by reach and solved from conduction-path rows.
        self.counters["vector_passes"] = 0
        self.counters["vector_wasted_evals"] = 0
        self.counters["reach_solves"] = 0
        self.counters["row_solves"] = 0

    def _lower_tables(self) -> None:
        """Nothing to lower, nor to stamp: reach decides most solves,
        and a row solve stamps its CCC on first need."""

    # -- testbench interface (array mirror maintenance) ----------------

    def _touch(self, net: str) -> None:
        for idx in self._gate_readers.get(net, ()):
            d = self._dirty[idx]
            if d is not None:
                d.add(net)
            self._dirty_version[idx] += 1
        for idx in self._net_cccs.get(net, ()):
            d = self._dirty[idx]
            if d is not None:
                d.add(net)
            self._dirty_version[idx] += 1

    def drive(self, net: str, value: Logic | int | bool) -> None:
        super().drive(net, value)
        self._sync_net(net)

    def release(self, net: str) -> None:
        super().release(net)
        self._sync_net(net)

    def _sync_net(self, net: str) -> None:
        nid = self._tables.net_ids.get(net)
        if nid is None:
            return  # net unknown to the netlist: electrically inert
        st = self.state[net]
        self._val[nid] = st.value.value
        self._driven[nid] = st.driven
        self._ext[nid] = held = net in self._externally_driven
        if net in self._port_cccs:
            self._held[self._net_row[nid]] = (_BOTH << st.value.value
                                              if held else 0)

    # -- the speculative settle loop -----------------------------------

    def settle(self, max_events: int = 100000) -> int:
        n = len(self._tables.cccs)
        dirty = self._dirty
        versions = self._dirty_version
        gate_readers = self._gate_readers
        port_cccs = self._port_cccs
        counters = self.counters
        heap = [i for i in range(n) if dirty[i] is None or dirty[i]]
        in_pending = [False] * n
        pend = np.zeros(n, bool)  # numpy mirror for fast snapshot scans
        for i in heap:
            in_pending[i] = True
            pend[i] = True
        evaluations = 0
        # Speculation cache: idx -> (version, result).  Entries are
        # single-use (dropped at apply, because applying a CCC changes
        # its own internal nets without bumping its version) and
        # version-guarded (any disturbance of the CCC's fan-in since
        # speculation invalidates the entry).  The loop always applies
        # the true heap minimum, so apply order is exactly the
        # reference's pop order; the cache only decides whether that
        # result comes from an earlier pass or a fresh one.
        cache: dict[int, tuple[int, tuple]] = {}
        # Adaptive speculation depth: grow toward the number of entries
        # consumed between refills (wide independent frontiers), shrink
        # when serial propagation invalidates entries quickly.
        batch = 32
        applied_since_refill = 0
        while True:
            while heap and not in_pending[heap[0]]:
                heapq.heappop(heap)
            if not heap:
                break
            idx = heap[0]
            entry = cache.get(idx)
            if entry is not None and entry[0] != versions[idx]:
                counters["vector_wasted_evals"] += 1
                del cache[idx]
                entry = None
            if entry is None:
                batch = min(65536, max(16, 2 * applied_since_refill,
                                       batch if applied_since_refill else 16))
                applied_since_refill = 0
                # Pending CCCs without a still-valid entry, ascending --
                # the prefix is what the reference would pop next.
                snap = []
                for i in np.flatnonzero(pend).tolist():
                    e = cache.get(i)
                    if e is not None:
                        if e[0] == versions[i]:
                            continue
                        counters["vector_wasted_evals"] += 1
                    snap.append(i)
                    if len(snap) == batch:
                        break
                counters["vector_passes"] += 1
                for i, result in zip(snap, self._speculate(snap)):
                    cache[i] = (versions[i], result)
                entry = cache[idx]
            evaluations += 1
            if evaluations > max_events:
                raise OscillationError(
                    f"design did not settle within {max_events} CCC "
                    f"evaluations; combinational loop suspected"
                )
            in_pending[idx] = False
            pend[idx] = False
            heapq.heappop(heap)  # == idx: it was heap[0]
            del cache[idx]
            applied_since_refill += 1
            changed = self._apply(idx, entry[1])
            for net in changed:
                for r in gate_readers.get(net, ()):
                    d = dirty[r]
                    if d is not None:
                        d.add(net)
                    versions[r] += 1
                    if not in_pending[r]:
                        in_pending[r] = True
                        pend[r] = True
                        heapq.heappush(heap, r)
                for r in port_cccs.get(net, ()):
                    d = dirty[r]
                    if d is not None:
                        d.add(net)
                    versions[r] += 1
                    if not in_pending[r]:
                        in_pending[r] = True
                        pend[r] = True
                        heapq.heappush(heap, r)
        counters["vector_wasted_evals"] += len(cache)
        self.time += 1
        counters["ccc_evaluations"] += evaluations
        counters["settle_calls"] += 1
        return evaluations

    # -- speculation ----------------------------------------------------

    def _speculate(self, snap: list[int]) -> list[tuple]:
        """Evaluate every snapshot CCC against current state; returns,
        per CCC in snapshot order, ``(changes, naive, solved, by_rows)``:
        its state-changing rows as ``(row, value, driven, value
        changed)`` in row order (the reference's history order), its
        rows the testbench does not hold, and how many of them it
        solved, from path rows or by reach.

        Pure: writes only overlay copies.  A CCC's own channel nets read
        its evaluation's overlay -- that is the wave-semantics mid-pass
        visibility -- while every other net reads the untouched base
        state, so no speculative cross-CCC leakage is possible, and the
        CCCs can be evaluated apart: those of at least
        ``_NUMPY_MIN_DEVICES`` live devices in one batched pass, each
        smaller one on its own.
        """
        dev_ptr = self._dev_ptr
        bound = _NUMPY_MIN_DEVICES
        large = [i for i in snap if dev_ptr[i + 1] - dev_ptr[i] >= bound]
        batched = self._speculate_batched(large) if large else {}
        return [batched[i] if i in batched else self._settle_small(i)
                for i in snap]

    def _settle_small(self, idx: int) -> tuple:
        """One CCC's speculative evaluation in plain Python.

        The batched pass's steps for a single CCC, on Python lists: pop
        the queued rows of the lowest wave, decide them by reach over
        the CCC's live devices (:func:`_reach_small`), solve the rows
        reach leaves open from their paths (:meth:`_solve_small`), then
        write the wave's results and queue the later rows a value change
        re-opens.
        """
        T = self._tables
        base = self._val
        r0, r1 = self._row_ptr[idx], self._row_ptr[idx + 1]
        nets = T.row_net[r0:r1]
        owned = self._ext[nets].tolist()  # the testbench holds those
        naive = owned.count(False)
        dirty = self._dirty[idx]
        if dirty is None:
            queued = set(range(r1 - r0))
        else:
            aff = T.affected_rows[idx]
            hits = [aff[t] for t in dirty if t in aff]
            queued = set((np.concatenate(hits) - r0).tolist()
                         if hits else ())
        changes: list[tuple[int, int, bool, bool]] = []
        if not queued:
            return changes, naive, 0, 0
        cur = base[nets].tolist()  # the overlay, by row position
        drv = self._driven[nets].tolist()
        wave = self._wave[r0:r1]
        rows_only = self._rows_only[idx]
        if not rows_only:
            src_bits = self._held[r0:r1].tolist()
            devices = self._small_devices(idx)
        later, later_ptr = self._later, self._later_ptr
        solved = by_rows = 0
        while queued:
            w = min([wave[p] for p in queued])
            todo = sorted([p for p in queued if wave[p] == w])
            queued.difference_update(todo)
            todo = [p for p in todo if not owned[p]]
            if not todo:
                continue
            solved += len(todo)
            if rows_only:
                codes = [-1] * len(todo)
            else:
                bits = _reach_small(devices, cur, src_bits)
                codes = [_DECIDE_LIST[bits[p] * 3 + cur[p]] for p in todo]
            open_ = [k for k, code in enumerate(codes) if code < 0]
            if open_:
                by_rows += len(open_)
                for k, code in zip(open_, self._solve_small(
                        idx, r0, [todo[k] for k in open_], cur)):
                    codes[k] = code
            for p, code in zip(todo, codes):
                v, d = code % 3, code >= 3
                vc = v != cur[p]
                if vc or d != drv[p]:
                    changes.append((r0 + p, v, d, vc))
                    cur[p] = v
                    drv[p] = d
                if vc:
                    # Mid-pass expansion: only rows at later positions,
                    # which sit at strictly greater waves.
                    queued.update(later[later_ptr[r0 + p]:
                                        later_ptr[r0 + p + 1]])
        changes.sort()
        return changes, naive, solved, by_rows

    def _small_devices(self, idx: int) -> list[tuple[int, int, int, int,
                                                      int]]:
        """The live devices of CCC ``idx`` that committed state leaves
        able to conduct, as ``(a, far, gate, level3, passes)`` (see
        :func:`_reach_small`): for a gate inside the CCC, its row
        position and ``level * 3``, the pass mask then read per wave
        from the overlay; for any other, -1 and its fixed pass mask."""
        d0, d1 = self._dev_ptr[idx], self._dev_ptr[idx + 1]
        value = self._val.item
        both = int(_BOTH)
        devices = []
        for a, far, gate, level3 in zip(
                self._dev_a[d0:d1], self._dev_far[d0:d1],
                self._dev_gate[d0:d1], self._dev_level3[d0:d1]):
            passes = 0
            if gate < 0:
                passes = _PASS_LIST[level3 + value(-1 - gate)]
                if not passes:
                    continue
                gate = -1
            if far < 0:
                far = -(both << value(-1 - far))
            devices.append((a, far, gate, level3, passes))
        return devices

    def _solve_small(self, idx: int, r0: int, todo: list[int],
                     cur: list[int]) -> list[int]:
        """:meth:`SwitchSimulator._solve_net` for rows ``r0 + p`` of CCC
        ``idx`` (stamping it first), each as a reach code: the value,
        plus 3 when driven.  ``cur`` is the overlay by row position.

        Walks each row's paths in path order and adds conductances as
        the reference does, so the sums agree bit for bit.  An active
        source is a rail or a port the testbench holds, which no solve
        writes, so its committed value is its overlay value.
        """
        T = self._tables
        if not T.ccc_stamped[idx]:
            T.stamp((idx,))
        base = self._val
        ratio = self.dominance_ratio
        codes = []
        for p in todo:
            start = T.row_path_start.item(r0 + p)
            stop = start + T.row_path_count.item(r0 + p)
            src = T.path_src[start:stop]
            live = (T.path_src_rail[start:stop] | self._ext[src]).tolist()
            source = base[src].tolist()
            path_g = T.path_g[start:stop].tolist()
            cond_ptr = T.cond_ptr[start:stop + 1].tolist()
            c0, c1 = cond_ptr[0], cond_ptr[-1]
            gate = T.cond_gate[c0:c1]
            # A gate inside the CCC as its row position, any other as
            # minus one minus its committed value.
            gate_at = np.where(T.cond_internal[c0:c1],
                               self._net_row[gate] - r0,
                               -1 - base[gate].astype(np.int64)).tolist()
            level = T.cond_level[c0:c1].tolist()
            def0 = def1 = may0 = may1 = 0.0
            poss0 = poss1 = definite_x = False
            for k, active in enumerate(live):
                if not active:
                    continue
                maybe = False
                for c in range(cond_ptr[k] - c0, cond_ptr[k + 1] - c0):
                    at = gate_at[c]
                    value = cur[at] if at >= 0 else -1 - at
                    if value + level[c] == 1:
                        break
                    if value == 2:
                        maybe = True
                else:
                    sv = source[k]
                    g = path_g[k]
                    if sv == 2:
                        poss0 = poss1 = True
                        may0 += g
                        may1 += g
                        if not maybe:
                            definite_x = True
                    elif sv == 0:
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
                if def0 >= ratio * (def1 + may1) and not definite_x:
                    codes.append(0 + 3)
                elif def1 >= ratio * (def0 + may0) and not definite_x:
                    codes.append(1 + 3)
                else:
                    codes.append(2 + 3)
            elif definite_x:
                codes.append(2 + 3)
            elif poss0 != poss1 and cur[p] == (0 if poss0 else 1):
                codes.append(cur[p])  # the only disturbance agrees
            else:
                codes.append(2 if poss0 or poss1 else cur[p])
        return codes

    def _speculate_batched(self, snap: list[int]) -> dict[int, tuple]:
        """:meth:`_speculate` for CCCs ``snap`` (ascending) in one
        batched numpy pass: every wave's queued rows of all of them
        together, decided by :meth:`_reach` and :meth:`_solve_rows`."""
        T = self._tables
        base = self._val  # read-only during speculation
        val = base.copy()
        drv = self._driven.copy()
        ext = self._ext
        row_wave = T.row_wave
        # The wave queue: a mask over the snapshot's rows (every row a
        # pass can reach is a snapshot CCC's).  Popping takes all queued
        # rows of the lowest wave, ascending.
        base_row = int(T.ccc_row_start[snap[0]])
        queued = np.zeros(int(T.ccc_row_end[snap[-1]]) - base_row, bool)
        for idx in snap:
            dirty = self._dirty[idx]
            if dirty is None:
                queued[T.ccc_row_start[idx] - base_row:
                       T.ccc_row_end[idx] - base_row] = True
            else:
                aff = T.affected_rows[idx]
                for t in dirty:
                    rows = aff.get(t)
                    if rows is not None:
                        queued[rows - base_row] = True

        solved_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        chg_rows: list[np.ndarray] = []
        chg_val: list[np.ndarray] = []
        chg_drv: list[np.ndarray] = []
        chg_vc: list[np.ndarray] = []
        while True:
            rows = np.flatnonzero(queued)
            if not rows.size:
                break
            waves = row_wave[rows + base_row]
            rows = rows[waves == waves.min()]
            queued[rows] = False
            rows += base_row
            rows = rows[~ext[T.row_net[rows]]]  # testbench owns those
            if rows.size == 0:
                continue
            new_v, new_d, open_ = self._reach(rows, val, base)
            if open_.any():
                by_rows = rows[open_]
                new_v[open_], new_d[open_] = self._solve_rows(by_rows, val,
                                                              base)
                row_parts.append(by_rows)
            nets = T.row_net[rows]
            prev = val[nets]
            vchg = new_v != prev
            schg = vchg | (new_d != drv[nets])
            val[nets] = new_v
            drv[nets] = new_d
            solved_parts.append(rows)
            if schg.any():
                chg_rows.append(rows[schg])
                chg_val.append(new_v[schg])
                chg_drv.append(new_d[schg])
                chg_vc.append(vchg[schg])
            vrows = rows[vchg]
            if vrows.size:
                # Mid-pass expansion: value changes open paths for nets
                # at later positions of the same CCC, which always sit
                # at strictly greater waves -- never behind the sweep.
                starts = T.aff_later_ptr[vrows]
                counts = T.aff_later_ptr[vrows + 1] - starts
                queued[T.aff_later_rows[csr_gather(starts, counts)]
                       - base_row] = True

        cccs = np.asarray(snap, np.int64)
        first, last = T.ccc_row_start[cccs], T.ccc_row_end[cccs]
        counts = last - first
        owner = np.repeat(np.arange(cccs.size), counts)
        naive = np.bincount(owner[~ext[T.row_net[csr_gather(first, counts)]]],
                            minlength=cccs.size).tolist()

        def per_ccc(parts: list[np.ndarray]) -> list[int]:
            if not parts:
                return [0] * cccs.size
            return np.bincount(T.row_ccc[np.concatenate(parts)],
                               minlength=len(T.cccs))[cccs].tolist()

        solved = per_ccc(solved_parts)
        by_rows = per_ccc(row_parts)
        changes: list[list] = [[] for _ in snap]
        if chg_rows:
            rows = np.concatenate(chg_rows)
            order = np.argsort(rows)
            rows = rows[order]
            flat = list(zip(rows.tolist(),
                            np.concatenate(chg_val)[order].tolist(),
                            np.concatenate(chg_drv)[order].tolist(),
                            np.concatenate(chg_vc)[order].tolist()))
            for j, (lo, hi) in enumerate(zip(
                    np.searchsorted(rows, first).tolist(),
                    np.searchsorted(rows, last).tolist())):
                changes[j] = flat[lo:hi]
        return {i: (changes[j], naive[j], solved[j], by_rows[j])
                for j, i in enumerate(snap)}

    def _reach(self, rows: np.ndarray, val: np.ndarray, base: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decide ``rows`` (ascending, unique) from which source levels
        reach them; returns ``(value, driven, open)`` per row, where
        ``open`` marks the rows reach leaves to their path rows (their
        value and driven entries are placeholders).

        One pass over every live device of the rows' CCCs: a gate
        inside the device's CCC reads the overlay ``val``, any other
        gate the committed ``base``.  Nodes start from their held-port
        bits, rail devices add their rail's level, and every device
        ORs its ends' bits into each other, masked by what it passes,
        to a fixpoint.
        """
        T = self._tables
        rc = T.row_ccc[rows]
        heads = np.ones(rc.size, bool)
        np.not_equal(rc[1:], rc[:-1], out=heads[1:])
        cccs = rc[heads]
        d0 = T.dev_ptr[cccs]
        di = csr_gather(d0, T.dev_ptr[cccs + 1] - d0)
        gate = T.dev_gate[di]
        gv = np.where(T.dev_internal[di], val[gate], base[gate])
        passes = _PASS[T.dev_level[di] * 3 + gv]
        live = passes != 0
        di, passes = di[live], passes[live]
        a, b = T.dev_a[di], T.dev_b[di]
        bits, held = self._bits, self._held
        bits[a] = held[a]
        pair = b >= 0
        ea, eb, mask = a[pair], b[pair], passes[pair]
        bits[eb] = held[eb]
        if not pair.all():
            rail = ~pair
            np.bitwise_or.at(bits, a[rail], passes[rail] & (
                _BOTH << val[T.dev_rail[di[rail]]].astype(np.uint8)))
        if ea.size:
            ba, bb = bits[ea], bits[eb]
            while True:
                u = (ba | bb) & mask
                np.bitwise_or.at(bits, ea, u)
                np.bitwise_or.at(bits, eb, u)
                na, nb = bits[ea], bits[eb]
                if not ((na != ba).any() or (nb != bb).any()):
                    break
                ba, bb = na, nb
        code = _DECIDE[bits[rows] * 3 + val[T.row_net[rows]]]
        bits[a] = 0
        bits[eb] = 0
        return (code % 3, code >= 3,
                (code < 0) | T.ccc_rows_only[rc])

    def _solve_rows(self, rows: np.ndarray, val: np.ndarray,
                    base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`SwitchSimulator._solve_net` over many rows,
        from their conduction-path rows (stamping their CCCs first).

        ``val`` is the in-pass overlay (source/prev reads, internal
        conditions), ``base`` the committed pre-pass state (external
        conditions).  ``rows`` are ascending and unique.  Returns the
        new (value, driven) per row; bit-identical to the scalar solver
        because the bincount segment sums add path conductances in the
        same order as the reference's scalar ``+=`` loop, and dropping
        a masked-out path only removes a ``+ 0.0`` term (which never
        changes a float sum bitwise).
        """
        T = self._tables
        rc = T.row_ccc[rows]
        T.stamp(rc[~T.ccc_stamped[rc]])
        nr = rows.size
        counts = T.row_path_count[rows]
        pi = csr_gather(T.row_path_start[rows], counts)
        seg = np.repeat(np.arange(nr), counts)
        src = T.path_src[pi]
        act = T.path_src_rail[pi] | self._ext[src]
        if not act.all():
            # Non-rail sources only drive while externally held.
            pi, seg, src = pi[act], seg[act], src[act]
        # Conditions: a path is off when one blocks (a definite gate
        # value opposite its required level: value + level == 1), and
        # on when none is at X.  A path's watched condition -- the last
        # one found blocking it -- is read first; only paths it no
        # longer blocks read all their conditions.
        watch = self._watch
        if watch.size < T.path_src.size:  # the store grew: double
            grown = np.full(max(T.path_src.size, 2 * watch.size), -1,
                            np.int64)
            grown[:watch.size] = watch
            watch = self._watch = grown
        w = watch[pi]
        unsure = w < 0
        wc = w[~unsure]
        gate = T.cond_gate[wc]
        unsure[~unsure] = (np.where(T.cond_internal[wc], val[gate],
                                    base[gate]) + T.cond_level[wc]) != 1
        pi, seg, src = pi[unsure], seg[unsure], src[unsure]
        c0 = T.cond_ptr[pi]
        nc = T.cond_ptr[pi + 1] - c0
        ci = csr_gather(c0, nc)
        owner = np.repeat(np.arange(pi.size), nc)
        gate = T.cond_gate[ci]
        gv = np.where(T.cond_internal[ci], val[gate], base[gate])
        blocks = gv + T.cond_level[ci] == 1
        off = np.zeros(pi.size, bool)
        off[owner[blocks]] = True
        watch[pi[owner[blocks]]] = ci[blocks]
        maybe = np.zeros(pi.size, bool)
        maybe[owner[gv == 2]] = True
        if off.any():
            pi, seg, src, maybe = (pi[~off], seg[~off], src[~off],
                                   maybe[~off])
        if pi.size:
            g = T.path_g[pi]
            on = ~maybe
            sv = val[src]
            sx = sv == 2           # X source through a non-off path
            d0 = on & (sv == 0)
            d1 = on & (sv == 1)
            m0 = (maybe & (sv == 0)) | sx
            m1 = (maybe & (sv == 1)) | sx
            dx = sx & on           # definitely-on path from an X source
            # Fused per-side segment sums: even bins collect definite
            # conductance, odd bins "maybe"; in-bin order is path order,
            # so float accumulation matches the reference exactly.
            side0 = np.bincount(seg * 2 + m0,
                                weights=np.where(d0 | m0, g, 0.0),
                                minlength=2 * nr)
            side1 = np.bincount(seg * 2 + m1,
                                weights=np.where(d1 | m1, g, 0.0),
                                minlength=2 * nr)
            G_d0 = side0[0::2]
            G_m0 = side0[1::2]
            G_d1 = side1[0::2]
            G_m1 = side1[1::2]
            P0 = np.zeros(nr, bool)
            P0[seg[d0 | m0]] = True
            P1 = np.zeros(nr, bool)
            P1[seg[d1 | m1]] = True
            DX = np.zeros(nr, bool)
            DX[seg[dx]] = True
        else:
            G_d0 = G_d1 = G_m0 = G_m1 = np.zeros(nr)
            P0 = P1 = DX = np.zeros(nr, bool)

        ratio = self.dominance_ratio
        prev = val[T.row_net[rows]]
        total0 = G_d0 + G_m0
        total1 = G_d1 + G_m1
        any_def = (G_d0 > 0.0) | (G_d1 > 0.0)
        win0 = (G_d0 >= ratio * total1) & ~DX
        win1 = (G_d1 >= ratio * total0) & ~DX & ~win0
        driven_v = np.where(win0, 0, np.where(win1, 1, 2))
        poss = P0 | P1
        keep = (P0 & ~P1 & (prev == 0)) | (P1 & ~P0 & (prev == 1))
        float_v = np.where(poss & ~keep, 2, prev)
        new_v = np.where(any_def, driven_v,
                         np.where(DX, 2, float_v)).astype(np.int8)
        new_d = any_def | DX
        return new_v, new_d

    # -- applying a surviving speculative result ------------------------

    def _apply(self, idx: int, result: tuple) -> list[str]:
        changes, naive, solved, by_rows = result
        counters = self.counters
        self._dirty[idx] = set()
        counters["naive_net_solves"] += naive
        counters["net_solves"] += solved
        counters["solve_count"] += solved
        counters["skip_count"] += naive - solved
        counters["reach_solves"] += solved - by_rows
        counters["row_solves"] += by_rows
        changed: list[str] = []
        if not changes:
            return changed
        T = self._tables
        state = self.state
        history = self.history
        record = self.record_history
        now = self.time
        row_name = T.row_name
        row_net = T.row_net
        for r, v, d, vc in changes:
            name = row_name[r]
            nid = row_net[r]
            self._val[nid] = v
            self._driven[nid] = d
            logic = _LOGIC[v]
            state[name] = NetState(logic, d)
            if vc:
                if record:
                    history.append((now, name, logic))
                changed.append(name)
        return changed


def _reach_small(devices: list, cur: list[int], src_bits: list[int]
                 ) -> list[int]:
    """:meth:`VectorSwitchSimulator._reach`'s node bits for one small
    CCC, by row position: the pass masks of ``devices`` (see
    ``_small_devices``) under the overlay ``cur``, spread from the
    held ports' ``src_bits`` and the rails to a fixpoint."""
    bits = list(src_bits)
    pairs = []
    for a, far, gate, level3, passes in devices:
        if gate >= 0:
            passes = _PASS_LIST[level3 + cur[gate]]
            if not passes:
                continue
        if far >= 0:
            pairs.append((a, far, passes))
        else:
            bits[a] |= passes & -far
    grew = bool(pairs)
    while grew:
        grew = False
        for a, b, mask in pairs:
            x, y = bits[a], bits[b]
            u = (x | y) & mask
            if u & ~x:
                bits[a] = x | u
                grew = True
            if u & ~y:
                bits[b] = y | u
                grew = True
    return bits
