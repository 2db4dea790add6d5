"""Switch-network conduction analysis.

Everything recognition needs to know about a transistor network reduces
to one question: *under which gate-input assignments does a conducting
channel path exist between net A and net B?*  This module enumerates the
simple paths of a CCC's switch graph and evaluates the resulting boolean
conduction function.

A path is conservative in the paper's sense: it records, per device on
the path, the gate net and the polarity (an NMOS conducts when its gate
is 1, a PMOS when its gate is 0).  A path conducts when all its device
conditions hold; conduction between two nets is the OR over paths.

Which paths, in which order
---------------------------
The answer for a pair ``(source, target)`` is defined by a per-pair
depth-first walk (``tests/oracles.py`` keeps it as the reference the
property tests compare against): a LIFO stack from ``source`` whose
children are pushed in adjacency order -- a preorder visiting children
in *reversed* adjacency order -- in which rails other than the source
terminate paths, no net is revisited, and paths requiring some gate at
both levels are dropped.  Classification signatures, packed-table
layouts and the timing graph all index path lists positionally, so the
order is part of the contract.

One target-rooted sweep
-----------------------
Every consumer (table build, the reference engine, recognition, the
electrical checks, STA arc extraction) asks for paths between some
channel net and a *few shared targets*: ``vdd``, ``gnd`` and the CCC's
ports.  :func:`conduction_paths` therefore answers a pair from one
traversal rooted at the target (:func:`sweep_paths_to_target`), which
records every simple path from the target to *every* net at once and
serves each later source from the same record.  Three facts make it
bit-identical -- content *and* order -- to the per-pair walk:

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
path's state as uint64 bitmasks.  Both produce the same buckets,
overflow set, and materialized paths.

``source == target`` is not a pair any consumer asks about (a loop back
to the source joins no two nets) and raises ``ValueError``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ConductionPath:
    """One simple channel path between two nets.

    ``conditions`` is a tuple of ``(gate_net, required_level)`` pairs:
    the path conducts when every gate net is at its required level
    (1 for NMOS, 0 for PMOS).
    """

    devices: tuple[str, ...]
    conditions: tuple[tuple[str, bool], ...]

    def conducts(self, assignment: Mapping[str, bool]) -> bool:
        """True if every device on the path is on under ``assignment``.

        Gate nets missing from the assignment make the path
        non-conducting (conservative: unknown is off for conduction
        purposes; callers wanting pessimism for *disturbance* enumerate
        both polarities instead).
        """
        for gate, level in self.conditions:
            if gate not in assignment or assignment[gate] != level:
                return False
        return True

    def gates(self) -> set[str]:
        return {g for g, _ in self.conditions}

    def is_contradictory(self) -> bool:
        """True if the path requires some gate at both 0 and 1 (never on)."""
        seen: dict[str, bool] = {}
        for gate, level in self.conditions:
            if gate in seen and seen[gate] != level:
                return True
            seen[gate] = level
        return False


def conduction_paths(
    ccc: ChannelConnectedComponent,
    source: str,
    target: str,
    max_paths: int = 10000,
) -> list[ConductionPath]:
    """All simple channel paths from ``source`` to ``target``.

    ``source``/``target`` may be rails or channel nets, but not the same
    net (``ValueError``).  Contradictory paths (requiring a gate at both
    levels) are dropped.  Raises ``RuntimeError`` if the enumeration
    exceeds ``max_paths`` -- a guard against pathological networks, not
    a silent truncation.

    Results are memoized on ``ccc.path_cache`` (sound: a CCC's topology
    is immutable after extraction, and :class:`ConductionPath` is
    frozen).  Clock inference, classification, latch finding, and the
    electrical checks all enumerate the same (net, rail) pairs.  A cache
    miss materializes the pair from :func:`sweep_paths_to_target`,
    which runs once per target and serves every source.
    """
    if source == target:
        raise ValueError(
            f"conduction paths need two distinct nets, got {source!r} twice")
    cached = ccc.path_cache.get((source, target, max_paths))
    if cached is not None:
        _COUNTERS["path_cache_hits"] += 1
        return list(cached)
    ts = sweep_paths_to_target(ccc, target, max_paths, want=source)
    sid = _graph(ccc)["net_ids"].get(source)
    if sid is not None and sid in ts["overflow"]:
        raise RuntimeError(
            f"conduction path enumeration between {source!r} and "
            f"{target!r} exceeded {max_paths} paths"
        )
    return list(_materialize_target(ccc, source, target, max_paths, ts))


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

    Shared by the target-rooted sweep and the packed-table template
    builder.  Net and gate names are interned to dense ids so the hot
    traversal loop touches no strings; per-entry tuples carry the
    *arrival rank* -- the entering device's position in the reversed
    adjacency list of the arrived-at net -- pre-resolved, which is all
    the order-restoration sort needs (see the module docstring).

    Layout: ``net_ids``/``nets`` name<->id maps (nets appearing as a
    live channel terminal, rails included), ``net_rail`` per-id rail
    flags, ``adj[i]`` entries ``(dev, other, gid, lvl, other_rail,
    arr_rank)`` in ``ccc.transistors`` order (permanently-off devices
    -- NMOS gated by gnd, PMOS by vdd -- elided, which keeps the
    relative order of the rest, all the rank sort depends on),
    ``dev_names`` in ``ccc.transistors`` order,
    ``dev_gate``/``dev_level`` the device's condition as a gate id (-1
    for none) and required level, and ``gate_names`` the gate id->name
    table.
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
    g = {
        "net_ids": net_ids, "nets": nets, "net_rail": net_rail,
        "adj": adj, "radj": radj, "dev_names": dev_names,
        "dev_gate": dev_gate, "dev_level": dev_level,
        "gate_names": gate_names,
    }
    state["graph"] = g
    return g


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
    csr = g["csr"] = {
        "deg": deg, "start": start[:-1],
        "dev": cols[:, 0], "other": cols[:, 1], "gid": cols[:, 2],
        "lvl": cols[:, 3], "rail": cols[:, 4], "rank": cols[:, 5],
    }
    return csr


def _sweep_bfs(g: dict, tid: int, target: str, want_id: int,
               max_paths: int) -> dict:
    """Vectorized all-sources sweep: expand the simple-path forest one
    depth level at a time with numpy.

    Each partial path is a frontier row carrying its state as uint64
    bitmask words: nets on the path, devices used, and the gate levels
    its conditions require (one mask per level -- conditions only
    accumulate along a path, so a contradiction test is two bit
    probes and no undo is ever needed).  A level expands every
    frontier row across its net's full edge list with gather/repeat,
    filters admissible arrivals with mask probes, records them as
    sweep nodes, and copies+updates the masks of the non-rail
    survivors to form the next frontier.

    Nodes are recorded in level order rather than the DFS's preorder;
    that is invisible to consumers, which sort materialized paths by
    their forward rank sequences -- a total key (equal rank prefixes
    force equal net prefixes, and no sequence strictly prefixes
    another).  Buckets and overflow are grouped once at the end,
    yielding the same bucket sets, overflow set, and ``want`` raise as
    the DFS.
    """
    csr = _bfs_csr(g)
    c_deg, c_start = csr["deg"], csr["start"]
    e_dev, e_other, e_gid = csr["dev"], csr["other"], csr["gid"]
    e_lvl, e_rail, e_rank = csr["lvl"], csr["rail"], csr["rank"]
    w_net = max(1, -(-len(g["nets"]) // 64))
    w_dev = max(1, -(-len(g["dev_names"]) // 64))
    w_gate = max(1, -(-len(g["gate_names"]) // 64))
    one = np.uint64(1)

    f_net = np.array([tid], np.int64)
    f_node = np.array([-1], np.int64)
    f_vis = np.zeros((1, w_net), np.uint64)
    f_vis[0, tid >> 6] = one << np.uint64(tid & 63)
    f_dev = np.zeros((1, w_dev), np.uint64)
    f_hi = np.zeros((1, w_gate), np.uint64)
    f_lo = np.zeros((1, w_gate), np.uint64)

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
        c_dev = e_dev[offs]
        c_other = e_other[offs]
        c_gid = e_gid[offs]
        c_lvl = e_lvl[offs]
        # Admissibility: arrival net unvisited, device unused, gate
        # condition not contradicting the path's accumulated ones.
        vis_bit = (f_vis[p_idx, c_other >> 6]
                   >> (c_other & 63).astype(np.uint64)) & one
        dev_bit = (f_dev[p_idx, c_dev >> 6]
                   >> (c_dev & 63).astype(np.uint64)) & one
        gid0 = np.maximum(c_gid, 0)
        gw = gid0 >> 6
        gb = (gid0 & 63).astype(np.uint64)
        hi_bit = (f_hi[p_idx, gw] >> gb) & one
        lo_bit = (f_lo[p_idx, gw] >> gb) & one
        contra = (c_gid >= 0) & np.where(
            c_lvl == 1, lo_bit, hi_bit).astype(bool)
        keep = (vis_bit == 0) & (dev_bit == 0) & ~contra
        n_k = int(keep.sum())
        if n_k == 0:
            break
        k_rows = p_idx[keep]
        k_other = c_other[keep]
        k_dev = c_dev[keep]
        par_parts.append(f_node[k_rows])
        dev_parts.append(k_dev)
        rnk_parts.append(e_rank[offs[keep]])
        dpt_parts.append(np.full(n_k, depth, np.int64))
        anet_parts.append(k_other)
        node_ids = np.arange(n_nodes, n_nodes + n_k, dtype=np.int64)
        n_nodes += n_k
        # Next frontier: non-rail arrivals, each owning copies of its
        # parent's masks with the traversed edge's bits folded in.
        nxt = e_rail[offs[keep]] == 0
        rows = k_rows[nxt]
        if rows.size == 0:
            break
        o = k_other[nxt]
        dv = k_dev[nxt]
        gd = np.maximum(c_gid[keep][nxt], 0)
        has_g = c_gid[keep][nxt] >= 0
        lv = c_lvl[keep][nxt]
        f_vis = f_vis[rows]
        f_dev = f_dev[rows]
        f_hi = f_hi[rows]
        f_lo = f_lo[rows]
        r_idx = np.arange(rows.size)
        f_vis[r_idx, o >> 6] |= one << (o & 63).astype(np.uint64)
        f_dev[r_idx, dv >> 6] |= one << (dv & 63).astype(np.uint64)
        m1 = has_g & (lv == 1)
        m0 = has_g & (lv == 0)
        f_hi[r_idx[m1], gd[m1] >> 6] |= one << (gd[m1] & 63).astype(
            np.uint64)
        f_lo[r_idx[m0], gd[m0] >> 6] |= one << (gd[m0] & 63).astype(
            np.uint64)
        f_net = o
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
    that pair ``(u, target)`` materializes from bucket ``u`` by walking
    parent chains (already in u-to-target order) and sorting by
    forward rank sequences.  See the module docstring for why this is
    bit-identical -- content and order -- to the per-pair walk.

    Returns (and caches under ``("tsweep", target, max_paths)`` in the
    sweep state) a dict of numpy node columns
    ``par``/``dev``/``rank``/``depth`` (parent node or -1, device slot,
    arrival rank, chain length), ``buckets`` mapping net id to arrival
    node indices in record order -- preorder for the DFS strategy,
    level order for the vectorized BFS used on CCCs of
    ``_BFS_MIN_DEVICES`` devices or more; consumers sort materialized
    paths by their total forward-rank key, so the two are
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


def _materialize_target(
    ccc: ChannelConnectedComponent,
    source: str,
    target: str,
    max_paths: int,
    ts: dict,
) -> tuple[ConductionPath, ...]:
    """Turn one source's target-sweep bucket into cached pair paths.

    Parent chains run from the arrival back to the root, i.e. already
    in source-to-target order; each chain yields its devices,
    conditions, and forward rank key in one walk, and sorting by key
    restores the per-pair enumeration order (module docstring).  A
    missing bucket means the sweep proved there are no paths; the
    empty answer is cached like any other.
    """
    cached = ccc.path_cache.get((source, target, max_paths))
    if cached is not None:
        return cached
    g = _graph(ccc)
    sid = g["net_ids"].get(source)
    bucket = ts["buckets"].get(sid) if sid is not None else None
    paths: list[ConductionPath] = []
    if bucket is not None and bucket.size:
        par, dev, rnk = ts["par"], ts["dev"], ts["rank"]
        dev_names = g["dev_names"]
        dev_gate, dev_level = g["dev_gate"], g["dev_level"]
        gate_names = g["gate_names"]
        keyed: list[tuple[tuple[int, ...], ConductionPath]] = []
        for node in bucket.tolist():
            key: list[int] = []
            devs: list[str] = []
            conds: list[tuple[str, bool]] = []
            while node >= 0:
                di = dev[node]
                key.append(rnk[node])
                devs.append(dev_names[di])
                gi = dev_gate[di]
                if gi >= 0:
                    conds.append((gate_names[gi], bool(dev_level[di])))
                node = par[node]
            keyed.append((tuple(key),
                          ConductionPath(devices=tuple(devs),
                                         conditions=tuple(conds))))
        keyed.sort(key=lambda kv: kv[0])
        paths = [p for _, p in keyed]
    result = tuple(paths)
    ccc.path_cache[(source, target, max_paths)] = result
    return result


def conduction_function(
    paths: Iterable[ConductionPath],
    assignment: Mapping[str, bool],
) -> bool:
    """Evaluate OR-over-paths conduction under one input assignment."""
    return any(p.conducts(assignment) for p in paths)


def support(paths: Iterable[ConductionPath]) -> set[str]:
    """All gate nets appearing in any path."""
    out: set[str] = set()
    for p in paths:
        out |= p.gates()
    return out


def truth_table(
    paths: list[ConductionPath],
    inputs: list[str],
    max_inputs: int = 16,
) -> int:
    """Conduction truth table as a bitmask.

    Bit ``i`` of the result is the conduction value when the input
    assignment is the binary expansion of ``i`` over ``inputs`` (inputs[0]
    is the least-significant bit).
    """
    if len(inputs) > max_inputs:
        raise ValueError(
            f"truth-table extraction over {len(inputs)} inputs exceeds the "
            f"{max_inputs}-input cap; use BDD-based equivalence instead"
        )
    table = 0
    for i in range(1 << len(inputs)):
        assignment = {name: bool((i >> k) & 1) for k, name in enumerate(inputs)}
        if conduction_function(paths, assignment):
            table |= 1 << i
    return table
