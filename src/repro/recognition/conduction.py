"""Switch-network conduction analysis.

Everything recognition needs to know about a transistor network reduces
to one question: *under which gate-input assignments does a conducting
channel path exist between net A and net B?*  This module enumerates the
simple paths of a CCC's switch graph and answers questions about them.

A path is conservative in the paper's sense: it records, per device on
the path, the gate net and the polarity (an NMOS conducts when its gate
is 1, a PMOS when its gate is 0).  A path conducts when all its device
conditions hold; conduction between two nets is the OR over paths.

One packed form
---------------
:func:`conduction_paths` answers a pair ``(source, target)`` with a
:class:`PathSet`: the pair's arrival nodes in one target-rooted sweep
record (:func:`sweep_paths_to_target`).  Recognition asks only
order-free questions -- gate support, device union, polarity and net
filters, pure-clock and footer tests, truth tables -- and a path meets
a net, a gate, a polarity or a device exactly when one of its devices
does.  So each question is a per-device fact tested along the set's
walk, its paths' device slots: Python lists for small sets, numpy
chains for large ones, walked once and kept.  No sweep records, and no
set keeps, anything per path beyond that walk, and no per-path object
is built.

Who walks paths
---------------
Consumers that price individual paths -- the STA graph and the
electrical checks -- read each path's devices straight off the sweep
record: :meth:`PathSet.chains` walks the pair's parent chains into
device slots, and :meth:`PathSet.sums` adds per-device values along
them (in Python for small sets, with numpy columns for large ones).
Gate and device tests run along the same walks (:meth:`PathSet.where`,
:meth:`PathSet.rows_by_gate`).  The packed switch tables, which both
switch-level simulation engines read, walk paths too: their builder
reads each source's sweep record once for all of a CCC's channel nets,
walking every arrival's chain with the same :func:`_chains` (devices
and arrival ranks) and sorting by position, source and forward rank
sequence to restore the per-pair order.  No production code turns a
path into an object; per-path object lists exist only in the test
oracles (``tests/oracles.py``), which materialize a ``PathSet`` in the
per-pair order.

Which paths, in which order
---------------------------
The contents of a pair are defined by a per-pair depth-first walk
(``tests/oracles.py`` keeps it as the reference the property tests
compare against): a LIFO stack from ``source`` whose children are
pushed in adjacency order -- a preorder visiting children in
*reversed* adjacency order -- in which rails other than the source
terminate paths, no net is revisited, and paths requiring some gate at
both levels are dropped.  The per-pair *order* of that walk binds only
the layouts that list a pair's paths one after another -- the packed
switch tables' rows and the oracles' path lists; classification reads
no order.

One target-rooted sweep
-----------------------
Every consumer asks for paths between some channel net and a *few
shared targets*: ``vdd``, ``gnd`` and the CCC's ports.  One traversal
rooted at the target records every simple path from the target to
*every* net at once and serves each later source from the same record.
Three facts make it bit-identical -- content *and* order -- to the
per-pair walk:

* **Reversal bijection.**  For ``source != target``, reversing a
  simple path maps the per-pair walk's path set (source-rooted, rails
  terminal, no revisits) one-to-one onto the arrivals of a
  target-rooted traversal under the same rules, and a device's
  condition does not depend on traversal direction.  Walking an
  arrival's parent chain back toward the root therefore yields devices
  and conditions already in source-to-target order.
* **Order restoration.**  The per-pair walk emits paths in preorder
  with children in reversed-adjacency order -- equivalently, sorted by
  the sequence of child ranks (position of each chosen edge in the
  reversed adjacency list of the net it leaves).  Equal rank prefixes
  force identical net prefixes, and no key is a strict prefix of
  another (that would put the target mid-path), so sorting the
  reversed arrivals by their forward rank sequences reproduces the
  per-pair order exactly.
* **Contradiction pruning.**  Conditions only accumulate along a path,
  so a contradictory prefix never becomes consistent again; the sweep
  prunes it at the first contradictory edge.  That changes no output
  and no ``max_paths`` accounting (only consistent paths count).

Because that sort key is total, the *record* order of the sweep is
immaterial, which frees the traversal strategy: small CCCs run a
per-node Python DFS, while CCCs of ``_BFS_MIN_DEVICES`` devices or more
run a level-synchronous vectorized BFS (:func:`_sweep_bfs`) that
expands whole frontier levels with numpy and tracks each partial
path's state as uint64 mask words, one frontier level at a time.  Both
produce the same node columns (up to record order), buckets, overflow
set and per-pair orders.

``source == target`` is not a pair any consumer asks about (a loop back
to the source joins no two nets) and raises ``ValueError``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence, Set
from functools import cache, reduce
from itertools import compress
from operator import or_

import numpy as np

from repro.netlist.nets import is_rail_name, is_supply_name
from repro.recognition.ccc import ChannelConnectedComponent

#: Monotonic module-level enumeration counters (see
#: :func:`enumeration_counters`).  ``target_sweeps`` counts
#: target-rooted all-sources traversals and ``path_cache_hits``
#: requests served straight from ``ccc.path_cache``.
_COUNTERS = {
    "target_sweeps": 0,
    "path_cache_hits": 0,
}


def enumeration_counters() -> dict[str, int]:
    """Snapshot of the process-wide path-enumeration counters.

    Counters are monotonic; callers wanting per-phase numbers take a
    snapshot before and after and subtract.
    """
    return dict(_COUNTERS)


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def _input_tables(n: int) -> tuple[int, list[int]]:
    """The all-ones truth table over ``n`` inputs, and per input ``k``
    the minterms where it is 1: blocks of 2**k ones every 2**(k+1)."""
    full = (1 << (1 << n)) - 1
    return full, [(full // ((1 << (2 << k)) - 1))
                  * (((1 << (1 << k)) - 1) << (1 << k)) for k in range(n)]


class PathSet:
    """The conduction paths of one ``(source, target)`` pair, packed.

    Holds the pair's arrival nodes in the target's sweep record (an
    ``intc`` array: the record's bucket itself, or a subset of it) and,
    from the first order-free query on, the set's walk: each path's
    device slots (:meth:`_walk`).  A path meets a net, a gate, a
    polarity or a device exactly when one of its devices does, so every
    order-free query tests per-device facts along that walk and keeps
    nothing per path but the walk itself.  The filters return a new
    ``PathSet`` over a subset of the nodes, with the walk filtered
    along; the per-path walks (:meth:`chains`, :meth:`sums`,
    :meth:`rows_by_gate`) follow the set's node order.

    Holds the sweep record and graph, never the CCC: the set lives in
    ``ccc.path_cache``, and a reference back would form a cycle that
    only the cyclic garbage collector frees.
    """

    __slots__ = ("_g", "_ts", "_nodes", "_walked", "_gate_rows")

    def __init__(self, g: dict, ts: dict, nodes: np.ndarray) -> None:
        self._g = g
        self._ts = ts
        self._nodes = nodes
        self._walked: list[list[int]] | np.ndarray | None = None
        self._gate_rows: dict[str, Sequence[int]] | None = None

    def __len__(self) -> int:
        return len(self._nodes)

    def _meets(self, devs: Set[int]) -> list[bool] | np.ndarray:
        """Per path, in node order: whether one of its devices is in
        ``devs``."""
        walk = self._walk()
        if isinstance(walk, list):
            return [not devs.isdisjoint(slots) for slots in walk]
        flag = np.zeros(len(self._g["dev_names"]) + 1, bool)
        flag[list(devs)] = True
        return flag[walk].any(axis=1)  # the -1 padding reads the last

    def _keep(self, bad: Set[int], *need: Set[int]) -> PathSet:
        """The paths with no device in ``bad`` and one in each of
        ``need``; the kept walk (:meth:`_walk`) is filtered along."""
        walk = self._walk()
        if isinstance(walk, list):
            sel = ([bad.isdisjoint(slots) for slots in walk] if bad
                   else [True] * len(walk))
            for devs in need:
                sel = [k and m for k, m in zip(sel, self._meets(devs))]
            if all(sel):
                return self
            kept = PathSet(self._g, self._ts,
                           self._nodes[np.array(sel, bool)])
            kept._walked = list(compress(walk, sel))
            return kept
        sel = ~self._meets(bad) if bad else np.ones(len(walk), bool)
        for devs in need:
            sel &= self._meets(devs)
        if sel.all():
            return self
        kept = PathSet(self._g, self._ts, self._nodes[sel])
        if not kept._walks_in_python():
            kept._walked = walk[sel]
        return kept

    def _devices_on(self) -> Iterable[int]:
        """The slots of the devices on some path."""
        walk = self._walk()
        if isinstance(walk, list):
            return set().union(*walk)
        seen = np.zeros(len(self._g["dev_names"]) + 1, bool)
        seen[walk] = True
        return np.flatnonzero(seen[:-1]).tolist()

    def _gated_by(self, nets: Iterable[str]) -> set[int]:
        """The devices gated by one of ``nets``."""
        g = self._g
        ids, gate_devs = g["gate_ids"], g["gate_devs"]
        devs: set[int] = set()
        for n in nets:
            gid = ids.get(n)
            if gid is not None:
                devs |= gate_devs[gid]
        return devs

    def _device_slots(self, names: Iterable[str]) -> set[int]:
        """The slots of the devices ``names``."""
        wanted = set(names)
        return {slot for slot, name in enumerate(self._g["dev_names"])
                if name in wanted}

    @property
    def device_names(self) -> list[str]:
        """Device names by slot: ``ccc.transistors`` order, the index
        space of :meth:`chains` and of the values :meth:`sums` reads."""
        return self._g["dev_names"]

    # -- filters -------------------------------------------------------------

    def where(self, *, through: Iterable[str] = (),
              using: Iterable[str] = (),
              avoid_gates: Iterable[str] = (),
              avoid_devices: Iterable[str] = ()) -> PathSet:
        """The paths with a condition on one of ``through`` (if given),
        through one of the devices ``using`` (if given), and with no
        condition on ``avoid_gates`` and no device in ``avoid_devices``."""
        need = []
        through = list(through)
        if through:
            need.append(self._gated_by(through))
        using = list(using)
        if using:
            need.append(self._device_slots(using))
        bad = self._gated_by(avoid_gates) | self._device_slots(avoid_devices)
        return self._keep(bad, *need) if bad or need else self

    def avoiding(self, nets: Iterable[str]) -> PathSet:
        """The paths that touch none of ``nets`` (either end included):
        none of whose devices has a channel terminal on them."""
        g = self._g
        ids = g["net_ids"]
        bad: set[int] = set()
        for n in nets:
            i = ids.get(n)
            if i is not None:
                bad.update(_net_devs(g)[i])
        return self._keep(bad) if bad else self

    def of_polarity(self, polarity: str) -> PathSet:
        """The paths whose devices are all ``"nmos"`` or all ``"pmos"``."""
        return self._keep(
            self._g["pmos_devs" if polarity == "nmos" else "nmos_devs"])

    def gated_within(self, nets: Iterable[str]) -> PathSet:
        """The paths with at least one condition, every one on ``nets``."""
        gated = self._g["gated"]
        return self._keep(gated - self._gated_by(nets), gated)

    # -- order-free answers ------------------------------------------------------

    def support(self) -> set[str]:
        """All gate nets appearing in any path."""
        g = self._g
        names, dev_gate = g["gate_names"], g["dev_gate"]
        return {names[gid] for gid in map(dev_gate.__getitem__,
                                          self._devices_on()) if gid >= 0}

    def devices(self) -> set[str]:
        """All devices on any path."""
        return set(map(self._g["dev_names"].__getitem__, self._devices_on()))

    def footed_by(self, gate: str) -> bool:
        """True if some path requires ``gate`` high and at least one
        more condition (a footer under a genuine evaluate stack)."""
        g = self._g
        gid = g["gate_ids"].get(gate)
        if gid is None:
            return False
        level = g["dev_level"]
        high = {d for d in g["gate_devs"][gid] if level[d]}
        return len(self._keep(set(), high, g["gated"] - high)) > 0

    def truth_table(self, inputs: list[str], max_inputs: int = 16) -> int:
        """Conduction truth table as a bitmask.

        Bit ``i`` of the result is the conduction value when the input
        assignment is the binary expansion of ``i`` over ``inputs``
        (``inputs[0]`` is the least-significant bit).  Each distinct
        (high, low) input cube of the paths contributes the minterms it
        covers; a path gated by a net outside ``inputs`` never
        conducts.
        """
        if len(inputs) > max_inputs:
            raise ValueError(
                f"truth-table extraction over {len(inputs)} inputs exceeds "
                f"the {max_inputs}-input cap; use BDD-based equivalence "
                f"instead"
            )
        g = self._g
        ids = g["gate_ids"]
        k_of: dict[int, int] = {}
        for k, name in enumerate(inputs):
            gid = ids.get(name)
            if gid is not None:
                k_of[gid] = k
        full, by_input = _input_tables(len(inputs))
        walk = self._walk()
        if isinstance(walk, list):
            # A path's gate cube: its devices' ``cond_bits`` OR-ed; a
            # cube on a gate outside ``inputs`` never conducts.
            cond_bits = g["cond_bits"]
            n_gates = len(g["gate_names"])
            gate_full = (1 << n_gates) - 1
            var = {gid: by_input[k] for gid, k in k_of.items()}
            known = sum(1 << gid for gid in var)
            cubes = [(cube & gate_full, cube >> n_gates) for cube in
                     {reduce(or_, map(cond_bits.__getitem__, slots), 0)
                      for slots in walk}]
            cubes = [(hi, lo) for hi, lo in cubes if not (hi | lo) & ~known]
        else:
            # Each device's condition as an input bit, high or low, over
            # the chains; a device gated outside ``inputs`` blocks its
            # paths.
            var = by_input
            gate_devs, level = g["gate_devs"], g["dev_level"]
            hi_of = np.zeros(len(level) + 1, np.int64)  # last: padding
            lo_of = hi_of.copy()
            inside: set[int] = set()
            for gid, k in k_of.items():
                for d in gate_devs[gid]:
                    (hi_of if level[d] else lo_of)[d] = 1 << k
                    inside.add(d)
            outside = g["gated"] - inside
            rows = walk[~self._meets(outside)] if outside else walk
            cubes = set(zip(
                np.bitwise_or.reduce(hi_of[rows], axis=1).tolist(),
                np.bitwise_or.reduce(lo_of[rows], axis=1).tolist()))
        table = 0
        for hi, lo in cubes:
            t = full
            for i in _bits(hi):
                t &= var[i]
            for i in _bits(lo):
                t &= ~var[i]
            table |= t
        return table

    def device_depths(self) -> dict[str, int]:
        """Length of the shortest path through each device on a path,
        shallowest first (then by slot)."""
        walk = self._walk()
        if isinstance(walk, list):
            best: dict[int, int] = {}
            for slots in walk:
                n = len(slots)
                for slot in slots:
                    if n < best.get(slot, n + 1):
                        best[slot] = n
            ranked = sorted((d, slot) for slot, d in best.items())
        else:
            top = np.iinfo(np.int64).max
            shortest = np.full(len(self._g["dev_names"]) + 1, top)
            np.minimum.at(shortest, walk, (walk >= 0).sum(axis=1)[:, None])
            slots = np.flatnonzero(shortest[:-1] < top)
            depth = shortest[slots]
            order = np.lexsort((slots, depth))
            ranked = zip(depth[order].tolist(), slots[order].tolist())
        names = self._g["dev_names"]
        return {names[slot]: d for d, slot in ranked}

    def rows_by_gate(self) -> dict[str, Sequence[int]]:
        """For each gate net some path has a condition on, the positions
        (in node order, ascending) of the paths that have one.  Kept."""
        if self._gate_rows is not None:
            return self._gate_rows
        g = self._g
        names = g["gate_names"]
        rows: dict[str, Sequence[int]] = {}
        if self._walks_in_python():
            dev_gate = g["dev_gate"]
            for row, slots in enumerate(self._slot_lists()):
                for slot in slots:
                    gid = dev_gate[slot]
                    if gid >= 0:
                        at = rows.setdefault(names[gid], [])
                        if not at or at[-1] != row:
                            at.append(row)
        else:
            chains = self._chain_rows()
            gate_of = np.append(np.asarray(g["dev_gate"], np.int64),
                                -1)[chains]
            gated = gate_of >= 0
            hit = np.zeros((len(names), len(chains)), bool)
            hit[gate_of[gated], np.nonzero(gated)[0]] = True
            gid, row = np.nonzero(hit)  # by gate, then row
            # ``array`` rows: an arc keeps them, at 4 bytes a path.
            row = row.astype(np.intc)
            cuts = (np.flatnonzero(np.diff(gid)) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, len(row)]):
                if lo < hi:
                    rows[names[gid[lo]]] = array("i", row[lo:hi].tobytes())
        self._gate_rows = rows
        return rows

    # -- per-path walks ------------------------------------------------------------

    def _walks_in_python(self) -> bool:
        """Whether this set is walked in Python, keeping the walk as
        lists, rather than with numpy (``_NUMPY_MIN_PATHS``)."""
        return len(self._nodes) < _NUMPY_MIN_PATHS

    def _walk(self) -> list[list[int]] | np.ndarray:
        """Each path's device slots, walked once and kept.

        A small set (:meth:`_walks_in_python`) keeps Python lists
        (:meth:`_slot_lists`): it is priced again by every timing build
        and check, and its lists cost less than the walk.  A large set
        keeps its :meth:`chains`, as ``int16`` where the CCC's slots
        fit, once an order-free query asks; a large set that is only
        priced keeps nothing.
        """
        if self._walked is None:
            if self._walks_in_python():
                return self._slot_lists()
            chains = self.chains()
            if len(self._g["dev_names"]) < 1 << 15:
                chains = chains.astype(np.int16)
            self._walked = chains
        return self._walked

    def _slot_lists(self) -> list[list[int]]:
        """:meth:`chains` as Python lists, walked once and kept -- or,
        where the set already keeps its chains, walked for this call."""
        if isinstance(self._walked, list):
            return self._walked
        ts = self._ts
        par, dev = memoryview(ts["par"]), memoryview(ts["dev"])
        walked = []
        for node in self._nodes.tolist():
            slots = []
            while node >= 0:
                slots.append(dev[node])
                node = par[node]
            walked.append(slots)
        if self._walked is None:
            self._walked = walked
        return walked

    def _chain_rows(self) -> np.ndarray:
        """:meth:`chains`: the kept walk if it is in that form, else
        built for this call."""
        if isinstance(self._walked, np.ndarray):
            return self._walked
        return self.chains()

    def chains(self) -> np.ndarray:
        """Device slots along each path, source to target.

        One row per path in the set's node order, padded with ``-1``
        past the path's last device; slots index :attr:`device_names`.
        The pair's parent chains (the record's ``par``/``dev`` columns)
        run from each arrival back to the root, i.e. already in
        source-to-target order, and are walked one level at a time for
        every path at once.  Built per call and not kept.
        """
        return _chains(self._ts, self._nodes)

    def sums(self, values: Sequence[float],
             ascending: bool = False) -> list[float]:
        """Each path's sum of per-device ``values``, in node order.

        ``values[slot]`` is device ``slot``'s value.  A path's values
        are added left to right from ``0.0`` in path order (source to
        target), or smallest first when ``ascending`` -- a sum that then
        depends only on the multiset of values.  Small sets are walked
        in Python (once, :meth:`_walk`); larger ones add :meth:`chains`
        columns with numpy, which gives the same sums because the
        ``0.0`` padding adds nothing.
        """
        if not self._walks_in_python():
            return self.sum_array(values, ascending).tolist()
        sums = []
        for slots in self._slot_lists():
            # From 0.0, two values add to the same sum in either order:
            # only longer paths need sorting.
            if ascending and len(slots) > 2:
                slots = sorted(slots, key=values.__getitem__)
            total = 0.0
            for slot in slots:
                total += values[slot]
            sums.append(total)
        return sums

    def sum_array(self, values: Sequence[float],
                  ascending: bool = False) -> np.ndarray:
        """:meth:`sums` as a float64 array, added with numpy over
        :meth:`chains` columns (the way :meth:`sums` adds a set too large
        to walk in Python)."""
        cols = np.append(np.asarray(values, np.float64),
                         0.0)[self._chain_rows()]
        if ascending:
            cols.sort(axis=1)
        total = np.zeros(len(cols))
        for col in cols.T:
            total += col
        return total


def conduction_paths(
    ccc: ChannelConnectedComponent,
    source: str,
    target: str,
    max_paths: int = 10000,
) -> PathSet:
    """All simple channel paths from ``source`` to ``target``, packed.

    ``source``/``target`` may be rails or channel nets, but not the same
    net (``ValueError``).  Contradictory paths (requiring a gate at both
    levels) are dropped.  Raises ``RuntimeError`` if the enumeration
    exceeds ``max_paths`` -- a guard against pathological networks, not
    a silent truncation.

    Results are memoized on ``ccc.path_cache`` (sound: a CCC's topology
    is immutable after extraction, and a :class:`PathSet` never
    changes).  Clock inference, classification, latch finding, and the
    electrical checks all ask about the same (net, rail) pairs.  A
    cache miss reads the pair from :func:`sweep_paths_to_target`, which
    runs once per target and serves every source.
    """
    if source == target:
        raise ValueError(
            f"conduction paths need two distinct nets, got {source!r} twice")
    key = (source, target, max_paths)
    cached = ccc.path_cache.get(key)
    if cached is not None:
        _COUNTERS["path_cache_hits"] += 1
        return cached
    ts = sweep_paths_to_target(ccc, target, max_paths, want=source)
    g = _graph(ccc)
    sid = g["net_ids"].get(source)
    if sid is not None and sid in ts["overflow"]:
        raise RuntimeError(
            f"conduction path enumeration between {source!r} and "
            f"{target!r} exceeded {max_paths} paths"
        )
    bucket = ts["buckets"].get(sid) if sid is not None else None
    result = PathSet(g, ts, bucket if bucket is not None else _NO_NODES)
    ccc.path_cache[key] = result
    return result


#: The nodes of a pair without paths.
_NO_NODES = np.empty(0, np.intc)
_NO_NODES.flags.writeable = False


def _sweep_state(ccc: ChannelConnectedComponent) -> dict:
    """Per-CCC sweep bookkeeping, attached lazily.

    Not a dataclass field: CCC objects round-trip through checkpoint
    pickles written before this attribute existed, and
    ``ChannelConnectedComponent.__getstate__`` strips it on serialize
    anyway.  Keys: ``"graph"`` -> the int-indexed switch graph
    (:func:`_graph`); ``("tsweep", target, max_paths)`` -> that
    target's sweep record (:func:`sweep_paths_to_target`).
    """
    state = getattr(ccc, "_sweep_state", None)
    if state is None:
        state = {}
        ccc._sweep_state = state
    return state


def _graph(ccc: ChannelConnectedComponent) -> dict:
    """Int-indexed switch graph, cached on the CCC's sweep state.

    Shared by the target-rooted sweep, :class:`PathSet` and the
    packed-table template builder.  Net and gate names are interned to
    dense ids so the hot traversal loop touches no strings; per-entry
    tuples carry the *arrival rank* -- the entering device's position
    in the reversed adjacency list of the arrived-at net --
    pre-resolved, which is all the order-restoration sort needs (see
    the module docstring).

    Layout: ``net_ids``/``nets`` name<->id maps (nets appearing as a
    live channel terminal, rails included), ``net_rail`` per-id rail
    flags, ``adj[i]`` entries ``(dev, other, gid, lvl, other_rail,
    arr_rank)`` in ``ccc.transistors`` order (permanently-off devices
    -- NMOS gated by gnd, PMOS by vdd -- elided, which keeps the
    relative order of the rest, all the rank sort depends on),
    ``dev_names`` in ``ccc.transistors`` order, ``dev_gate``/
    ``dev_level`` the device's condition as a gate id (-1 for none)
    and required level, and ``gate_names``/``gate_ids`` the gate
    id<->name tables.  The per-device facts the :class:`PathSet`
    filters test, as sets of device slots: ``gate_devs[gid]`` the
    devices ``gid`` gates, ``gated`` every device with a condition,
    and ``nmos_devs``/``pmos_devs`` the devices of each polarity (the
    devices on a net are :func:`_net_devs`).  ``cond_bits[dev]`` is the
    device's condition as one bit, ``gid`` for high and ``n_gates +
    gid`` for low (0 for none).
    """
    state = _sweep_state(ccc)
    g = state.get("graph")
    if g is not None:
        return g
    net_ids: dict[str, int] = {}
    nets: list[str] = []
    net_rail: list[bool] = []
    gate_ids: dict[str, int] = {}
    gate_names: list[str] = []
    dev_names: list[str] = []
    dev_gate: list[int] = []
    dev_level: list[int] = []
    adj: list[list] = []

    def nid_of(nm: str) -> int:
        i = net_ids.get(nm)
        if i is None:
            i = net_ids[nm] = len(nets)
            nets.append(nm)
            net_rail.append(is_rail_name(nm))
            adj.append([])
        return i

    for di, t in enumerate(ccc.transistors):
        level = t.polarity == "nmos"
        dev_names.append(t.name)
        if is_rail_name(t.gate):
            alive = is_supply_name(t.gate) == level
            gid = -1
        else:
            alive = True
            gid = gate_ids.get(t.gate)
            if gid is None:
                gid = gate_ids[t.gate] = len(gate_names)
                gate_names.append(t.gate)
        dev_gate.append(gid)
        dev_level.append(1 if level else 0)
        if not alive:
            continue
        d, s = t.channel_terminals()
        d_id, s_id = nid_of(d), nid_of(s)
        lvl = 1 if level else 0
        adj[d_id].append((di, s_id, gid, lvl, net_rail[s_id]))
        adj[s_id].append((di, d_id, gid, lvl, net_rail[d_id]))
    # Fold each entry's arrival rank in: its device's position in the
    # *arrived-at* net's reversed adjacency list.
    ranks: list[dict[int, int]] = [
        {e[0]: pos for pos, e in enumerate(reversed(entries))}
        for entries in adj
    ]
    for i, entries in enumerate(adj):
        adj[i] = [e + (ranks[e[1]][e[0]],) for e in entries]
    # Visit order is reversed adjacency; pre-reverse once so the sweep's
    # descent step skips a ``reversed()`` wrapper per frame.
    radj = [tuple(reversed(entries)) for entries in adj]
    gate_devs: list[set[int]] = [set() for _ in gate_names]
    for di, gid in enumerate(dev_gate):
        if gid >= 0:
            gate_devs[gid].add(di)
    nmos_devs = frozenset(di for di, lvl in enumerate(dev_level) if lvl)
    n_gates = len(gate_names)
    g = {
        "net_ids": net_ids, "nets": nets, "net_rail": net_rail,
        "adj": adj, "radj": radj, "dev_names": dev_names,
        "dev_gate": dev_gate, "dev_level": dev_level,
        "gate_names": gate_names, "gate_ids": gate_ids,
        "gate_devs": [frozenset(devs) for devs in gate_devs],
        "gated": frozenset(di for di, gid in enumerate(dev_gate)
                           if gid >= 0),
        "nmos_devs": nmos_devs,
        "pmos_devs": frozenset(range(len(dev_names))) - nmos_devs,
        "cond_bits": [0 if gid < 0 else 1 << (gid if lvl else n_gates + gid)
                      for gid, lvl in zip(dev_gate, dev_level)],
    }
    state["graph"] = g
    return g


def _net_devs(g: dict) -> list[tuple[int, ...]]:
    """Per net id, the devices with a channel terminal on it (from
    ``adj``), cached on the graph dict on first use."""
    net_devs = g.get("net_devs")
    if net_devs is None:
        net_devs = g["net_devs"] = [tuple(e[0] for e in entries)
                                    for entries in g["adj"]]
    return net_devs


#: Path count from which a :class:`PathSet` sums and groups its paths
#: with numpy per call instead of walking them once in Python and
#: keeping the walk.  Chosen by timing the STA graph (cold and warm
#: builds) plus the beta-ratio, edge-rate and writability checks on
#: ``chip_scale(1000)`` and ``chip_scale(5000)`` at several cutoffs:
#: 32 was fastest at both, 128 within 3%, 8 6-11% slower, Python for
#: the DFS records and numpy for the BFS ones 5-12% slower, all-Python
#: 30-100% and all-numpy 30-55% slower.
_NUMPY_MIN_PATHS = 32

#: Device count above which :func:`sweep_paths_to_target` switches from
#: the per-node Python DFS to the level-synchronous vectorized BFS.
#: Both produce equivalent sweep records (consumers restore per-pair
#: order by sorting on the total forward-rank-sequence key, so the
#: record order is immaterial); the BFS amortizes Python overhead over
#: whole frontier levels but pays ~40 numpy dispatches per level, which
#: only wins once the path forest is large.  Tests pin this to 0 to
#: force BFS coverage on small netlists.
_BFS_MIN_DEVICES = 48


def _bfs_csr(g: dict) -> dict:
    """Column-array (CSR) switch graph for the vectorized sweep.

    Flattens ``g["radj"]`` -- reversed adjacency, though the BFS does
    not depend on edge order -- into per-edge numpy columns plus a
    ``start``/``deg`` index, cached on the graph dict.

    The sweep tracks each partial path's state as one bitmask of
    uint64 words, low word first: bit ``dev`` for each device used,
    ``net0 + net`` for each net visited (both ends included), and
    ``hi0 + gid`` / ``lo0 + gid`` for each gate required high / low.
    The nets of a simple path are exactly the channel terminals of its
    devices, so the state is the OR of ``dev_rows`` -- per device: its
    own bit, both terminals, and its condition -- over its devices,
    plus the root's net bit.  Each edge carries the positions it
    probes: the arrival net, the device, and the gate level that
    contradicts its condition (``veto``).
    """
    csr = g.get("csr")
    if csr is not None:
        return csr
    radj = g["radj"]
    deg = np.array([len(e) for e in radj], np.int64)
    start = np.zeros(deg.size + 1, np.int64)
    np.cumsum(deg, out=start[1:])
    flat = [e for entries in radj for e in entries]
    if flat:
        cols = np.array(flat, np.int64)
    else:
        cols = np.empty((0, 6), np.int64)
    dev, other, gid, lvl = cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3]
    has_g = gid >= 0
    net0 = len(g["dev_names"])
    hi0 = net0 + len(g["nets"])
    lo0 = hi0 + len(g["gate_names"])
    width = max(1, -(-(lo0 + len(g["gate_names"])) // 64))
    # Every live device has one edge per direction, so its edges set
    # its own bit, both terminals' bits and its condition's.
    dev_rows = np.zeros((net0, width), np.uint64)
    for rows, pos in ((dev, dev), (dev, net0 + other),
                      (dev[has_g],
                       np.where(lvl == 1, hi0, lo0)[has_g] + gid[has_g])):
        np.bitwise_or.at(dev_rows, (rows, pos >> 6),
                         np.left_shift(np.uint64(1),
                                       (pos & 63).astype(np.uint64)))
    csr = g["csr"] = {
        "deg": deg, "start": start[:-1],
        "dev": dev, "other": other, "has_g": has_g,
        "rail": cols[:, 4], "rank": cols[:, 5],
        "net0": net0,
        "net_pos": net0 + other,
        "veto_pos": np.where(has_g, np.where(lvl == 1, lo0, hi0) + gid, 0),
        "dev_rows": dev_rows,
    }
    return csr


def _chains(ts: dict, nodes: np.ndarray, ranks: bool = False):
    """The device slots of ``nodes``' paths in a sweep record, one row
    per node, walked up all their parent chains at once (layout in
    :meth:`PathSet.chains`).

    With ``ranks``, returns ``(slots, ranks)``: the second array holds
    each step's arrival rank in the same layout, also padded with
    ``-1`` -- the forward rank sequences that restore the per-pair
    order (module docstring)."""
    par, dev, rnk = ts["par"], ts["dev"], ts["rank"]
    cur = np.asarray(nodes, np.int64)
    width = int(ts["depth"][cur].max()) if cur.size else 0
    out = np.full((cur.size, width), -1, np.intc)
    keys = np.full((cur.size, width), -1, np.intc) if ranks else None
    live = np.arange(cur.size)
    for level in range(width):
        out[live, level] = dev[cur]
        if ranks:
            keys[live, level] = rnk[cur]
        cur = par[cur]
        up = cur >= 0
        live, cur = live[up], cur[up]
    return (out, keys) if ranks else out


def _sweep_bfs(g: dict, tid: int, target: str, want_id: int,
               max_paths: int) -> dict:
    """Vectorized all-sources sweep: expand the simple-path forest one
    depth level at a time with numpy.

    Each partial path is a frontier row carrying its state mask (layout
    in :func:`_bfs_csr`) as uint64 words: conditions only accumulate
    along a path, so a contradiction test is one bit probe and no undo
    is ever needed.  A level expands every frontier row across its
    net's full edge list with gather/repeat, filters admissible
    arrivals with mask probes, records them as sweep nodes, and ORs
    each non-rail arrival's device bits into a copy of its parent's
    mask to form the next frontier.  A frontier's masks die with its
    level; the record keeps none.

    Nodes are recorded in level order rather than the DFS's preorder;
    that is invisible to consumers, which sort a pair's paths by
    their forward rank sequences -- a total key (equal rank prefixes
    force equal net prefixes, and no sequence strictly prefixes
    another).  Buckets and overflow are grouped once at the end,
    yielding the same bucket sets, overflow set, and ``want`` raise as
    the DFS.
    """
    csr = _bfs_csr(g)
    c_deg, c_start = csr["deg"], csr["start"]
    e_dev, e_other, e_has_g = csr["dev"], csr["other"], csr["has_g"]
    e_rail, e_rank = csr["rail"], csr["rank"]
    e_net, e_veto, dev_rows = csr["net_pos"], csr["veto_pos"], csr["dev_rows"]
    one = np.uint64(1)

    def bit(pos: np.ndarray) -> np.ndarray:
        return one << (pos & 63).astype(np.uint64)

    f_net = np.array([tid], np.int64)
    f_node = np.array([-1], np.int64)
    f_mask = np.zeros((1, dev_rows.shape[1]), np.uint64)
    root = csr["net0"] + tid
    f_mask[0, root >> 6] = one << np.uint64(root & 63)

    par_parts: list[np.ndarray] = []
    dev_parts: list[np.ndarray] = []
    rnk_parts: list[np.ndarray] = []
    dpt_parts: list[np.ndarray] = []
    anet_parts: list[np.ndarray] = []
    n_nodes = 0
    depth = 1
    while f_net.size:
        d = c_deg[f_net]
        total = int(d.sum())
        if total == 0:
            break
        p_idx = np.repeat(np.arange(f_net.size, dtype=np.int64), d)
        ends = np.cumsum(d)
        offs = (np.repeat(c_start[f_net] - (ends - d), d)
                + np.arange(total, dtype=np.int64))
        # Admissibility: arrival net unvisited, device unused, gate
        # condition not contradicting the path's accumulated ones.
        c_net, c_dev, c_veto = e_net[offs], e_dev[offs], e_veto[offs]
        seen = ((f_mask[p_idx, c_net >> 6] & bit(c_net))
                | (f_mask[p_idx, c_dev >> 6] & bit(c_dev))) != 0
        veto = (f_mask[p_idx, c_veto >> 6] & bit(c_veto)) != 0
        keep = ~seen & ~(veto & e_has_g[offs])
        n_k = int(keep.sum())
        if n_k == 0:
            break
        k_offs = offs[keep]
        k_rows = p_idx[keep]
        k_other = e_other[k_offs]
        par_parts.append(f_node[k_rows])
        dev_parts.append(e_dev[k_offs])
        rnk_parts.append(e_rank[k_offs])
        dpt_parts.append(np.full(n_k, depth, np.int64))
        anet_parts.append(k_other)
        node_ids = np.arange(n_nodes, n_nodes + n_k, dtype=np.int64)
        n_nodes += n_k
        # Next frontier: the non-rail arrivals, each owning a copy of
        # its parent's mask with the traversed device's bits folded in.
        nxt = e_rail[k_offs] == 0
        if not nxt.any():
            break
        f_mask = f_mask[k_rows[nxt]] | dev_rows[e_dev[k_offs[nxt]]]
        f_net = k_other[nxt]
        f_node = node_ids[nxt]
        depth += 1

    def cat(parts: list[np.ndarray]) -> np.ndarray:
        return (np.concatenate(parts).astype(np.intc) if parts
                else np.empty(0, np.intc))

    anet = (np.concatenate(anet_parts) if anet_parts
            else np.empty(0, np.int64))
    buckets: dict[int, np.ndarray] = {}
    overflow: set[int] = set()
    if anet.size:
        order = np.argsort(anet, kind="stable")
        snet = anet[order]
        cuts = np.flatnonzero(snet[1:] != snet[:-1]) + 1
        bounds = np.concatenate(([0], cuts, [snet.size]))
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            net_id = int(snet[a])
            if b - a > max_paths:
                if net_id == want_id:
                    raise RuntimeError(
                        f"conduction path enumeration between "
                        f"{g['nets'][net_id]!r} and {target!r} "
                        f"exceeded {max_paths} paths"
                    )
                overflow.add(net_id)
            else:
                buckets[net_id] = order[a:b].astype(np.intc)
    return {
        "par": cat(par_parts), "dev": cat(dev_parts),
        "rank": cat(rnk_parts), "depth": cat(dpt_parts),
        "buckets": buckets, "overflow": frozenset(overflow),
    }


def sweep_paths_to_target(
    ccc: ChannelConnectedComponent,
    target: str,
    max_paths: int = 10000,
    want: str | None = None,
) -> dict:
    """One traversal rooted at ``target`` collecting paths from *every*
    source.

    The dominant query shape is all channel nets against one shared
    target (a rail or port): a single traversal from ``target`` records
    every arrival as a compact node, bucketed by arrived-at net, so
    that pair ``(u, target)`` is bucket ``u``: its parent chains run in
    u-to-target order, and sorting them by forward rank sequences
    restores the per-pair order.  See the module docstring for why this
    is bit-identical -- content and order -- to the per-pair walk.

    Returns (and caches under ``("tsweep", target, max_paths)`` in the
    sweep state) a dict of numpy node columns
    ``par``/``dev``/``rank``/``depth`` (parent node or -1, device slot,
    arrival rank, chain length) and nothing else per node, ``buckets``
    mapping net id to arrival node indices in record order -- preorder
    for the DFS strategy, level order for the vectorized BFS used on
    CCCs of ``_BFS_MIN_DEVICES`` devices or more; consumers sort a
    pair's paths by their total forward-rank key, so the two are
    interchangeable -- and ``overflow``, the net ids whose pair with
    ``target`` exceeded ``max_paths`` (their buckets are dropped and
    any request for them raises, exactly like the per-pair walk).
    ``want`` names the source the triggering caller asked for so its
    overflow raises instead of being deferred.
    """
    state = _sweep_state(ccc)
    skey = ("tsweep", target, max_paths)
    ts = state.get(skey)
    if ts is not None:
        return ts
    _COUNTERS["target_sweeps"] += 1
    g = _graph(ccc)
    tid = g["net_ids"].get(target)
    want_id = g["net_ids"].get(want, -3) if want is not None else -3
    if tid is not None and len(ccc.transistors) >= _BFS_MIN_DEVICES:
        ts = _sweep_bfs(g, tid, target, want_id, max_paths)
        state[skey] = ts
        return ts
    # Node columns live interleaved in one ``array.array`` while the
    # loop runs -- a single ``extend`` per node instead of four list
    # appends -- and the final numpy conversion is a zero-copy
    # ``frombuffer`` view sliced into strided columns instead of
    # re-boxing millions of ints (a measurable slice of chip-scale
    # builds).  Order per node: parent, device, rank, depth.
    cols = array("i")
    buckets: dict[int, array] = {}
    overflow: set[int] = set()
    if tid is not None:
        radj = g["radj"]
        req: list[list[int]] = [[0, 0] for _ in g["gate_names"]]
        visited = bytearray(len(g["nets"]))
        visited[tid] = 1
        dev_on = bytearray(len(g["dev_names"]))
        # Hot loop: every arrival in the simple-path forest runs this
        # body once, so appends are pre-bound, the node id / depth are
        # tracked incrementally (depth == len(frames) + 1 invariant),
        # and the *current* frame lives in locals -- the ``frames``
        # stack only holds suspended ancestors, so a node costs no
        # tuple indexing.  Frame: (net, via_dev, via_gid, via_lvl,
        # parent node, child iterator); the via-edge's state is undone
        # when the iterator is exhausted (the ``for/else`` branch).
        cols_extend = cols.extend
        buckets_get = buckets.get
        n_nodes = 0
        depth = 1
        frames: list[tuple] = []
        frames_append, frames_pop = frames.append, frames.pop
        cur, cur_dev, cur_gid, cur_lvl = tid, -1, -1, 0
        parent_node = -1
        children = iter(radj[tid])
        while True:
            for d_i, other, gid, lvl, other_rail, arr_rank in children:
                if dev_on[d_i] or visited[other]:
                    continue
                if gid >= 0:
                    ent = req[gid]
                    if ent[1 - lvl]:
                        continue  # contradictory from here down: prune
                    ent[lvl] += 1
                node = n_nodes
                n_nodes += 1
                cols_extend((parent_node, d_i, arr_rank, depth))
                # A missing bucket means first arrival *or* an
                # overflowed-and-dropped net; the overflow set is only
                # consulted on that cold path, not per node.
                b = buckets_get(other)
                if b is None and other not in overflow:
                    b = buckets[other] = array("i")
                if b is not None:
                    b.append(node)
                    if len(b) > max_paths:
                        if other == want_id:
                            raise RuntimeError(
                                f"conduction path enumeration between "
                                f"{g['nets'][other]!r} and {target!r} "
                                f"exceeded {max_paths} paths"
                            )
                        overflow.add(other)
                        del buckets[other]
                if other_rail:
                    # Rails terminate paths; undo the condition in place.
                    if gid >= 0:
                        req[gid][lvl] -= 1
                    continue
                dev_on[d_i] = 1
                visited[other] = 1
                frames_append(
                    (cur, cur_dev, cur_gid, cur_lvl, parent_node,
                     children))
                cur, cur_dev, cur_gid, cur_lvl = other, d_i, gid, lvl
                parent_node = node
                children = iter(radj[other])
                depth += 1
                break
            else:
                # Children exhausted: unwind the current frame.
                if cur_dev >= 0:
                    dev_on[cur_dev] = 0
                    visited[cur] = 0
                if cur_gid >= 0:
                    req[cur_gid][cur_lvl] -= 1
                if not frames:
                    break
                (cur, cur_dev, cur_gid, cur_lvl, parent_node,
                 children) = frames_pop()
                depth -= 1

    quads = np.frombuffer(cols, np.intc).reshape(-1, 4)
    ts = {
        "par": quads[:, 0],
        "dev": quads[:, 1],
        "rank": quads[:, 2],
        "depth": quads[:, 3],
        "buckets": {
            i: np.frombuffer(b, np.intc) for i, b in buckets.items()
        },
        "overflow": frozenset(overflow),
    }
    state[skey] = ts
    return ts
