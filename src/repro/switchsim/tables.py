"""Packed array form of the switch-level simulation tables.

:class:`PackedSwitchTables` is the one table build both simulation
engines read.  The build lays out, for every CCC, everything the settle
loop needs to *schedule* and *decide* solves, plus the exact size of the
conduction-path tables; the paths themselves are stamped into a CCC
when a solve first needs them (:meth:`PackedSwitchTables.stamp`):

* **rows** -- one row per (CCC, channel net), ordered by CCC index then
  sorted net name.  This is the global solve space; a row id identifies
  both the net and the owning component.
* **waves** -- a static levelization of each CCC's intra-evaluation
  dependencies.  The reference solves a CCC's nets in sorted order with
  mid-pass state visibility, which fixes *two* read disciplines: a net
  sees the **new** value of any dependency at an earlier sorted
  position, and the **old** (pre-pass) value of any dependency at a
  later position.  ``row_wave`` satisfies both: ``wave(reader) >
  wave(dep)`` for earlier-position deps (new value visible) and
  ``wave(dep) >= wave(reader)`` for later-position deps (update not yet
  applied when the reader solves).  Both constraint kinds point from
  earlier to later sorted positions, so one sorted pass computes the
  fixpoint.  Solving wave 0, then wave 1, ... with updates applied
  between waves then observes exactly the same intermediate states as
  the sequential sweep.
* **affected / aff_later CSR** -- the dirty-propagation tables: which
  rows must re-solve when a trigger net changes, and (for mid-pass
  expansion) only the rows at a *later* sorted position than the
  changed net, which is all the sequential pass would still reach.
* **devices CSR** -- ``dev_ptr[ccc] : dev_ptr[ccc+1]`` slices the CCC's
  live devices (a device gated off by a rail is on no path, so it is
  absent): one channel terminal as a row (``dev_a``), the other as a
  row or -1 with the rail's net in ``dev_rail``, the gate net and its
  required level (-1 and 2 for a device a rail gates on), and whether
  the gate is one of the CCC's own channel nets (``dev_internal``).  The
  vector engine decides most solves from these alone, by which source
  levels reach a net (:mod:`repro.switchsim.vector`).
* **paths CSR, stamped on demand** -- a stamped row's conduction paths
  are ``row_path_start[row]`` onward, ``row_path_count[row]`` of them
  (the start is -1 until the row's CCC is stamped), in
  ``path_src``/``path_src_rail``/``path_g`` (source net, rail flag,
  series conductance), laid out in accumulation order (source entries
  in ``[vdd, gnd, sorted ports]`` order, enumeration order within an
  entry), so the engines' sums reproduce each other bit for bit;
  ``cond_ptr[path] : cond_ptr[path+1]`` slices a path's conditions
  (gate net, required level, and ``cond_internal``: whether the gate
  is a channel net of the row's own CCC).  Stamping every CCC yields,
  row by row, exactly the per-instance per-pair enumeration.

The build computes one template per CCC shape and stamps its schedule
per instance (:class:`_CCCTemplate`).  A template reads each source's
sweep record once: one pass, parents before children, carries each
arrival's gate support and condition count down its chain, which gives
every row's dependencies -- hence waves and dirty sets -- and the exact
path and condition counts without unrolling a path.  The paths are
unrolled per template, once, when its first instance is stamped: each
source's sweep record is walked once for all the CCC's channel nets, in
chunks of whole positions under a constant cell budget, one chain walk
per source and one lexsort per chunk.  A template drops its unrolled
rows once every instance has been stamped.

Tables depend only on the flat netlist topology/geometry and
``l_min_um``; apart from the append-only path store they are immutable
once built, and safe to share across simulators.  :meth:`fingerprint_of`
digests everything the build read,
so caches (see :meth:`repro.perf.DesignCache.switch_tables`) can detect
in-place netlist mutation (e.g. a sizing loop resizing devices) and
rebuild instead of serving stale conductances.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterable

import numpy as np

from repro.netlist.flatten import FlatNetlist
from repro.netlist.nets import is_rail_name, is_supply_name
from repro.recognition.ccc import ChannelConnectedComponent, extract_cccs
from repro.recognition.conduction import (
    _chains,
    _graph as switch_graph,
    sweep_paths_to_target,
)

#: Chain cells (arrivals times chain width) one step of a template's
#: sweep walk unrolls at most: a constant bound on the walk's transient
#: arrays, a few tens of bytes per cell.  The largest bus CCC of
#: ``chip_scale(10000)`` has 535,514 arrivals of depth up to 10 in one
#: rail's sweep; at 3k every template fits in one step.
_WALK_CELLS = 1 << 21

#: Local ids of the two source rails, as path sources and as device
#: terminals; a stamp maps them through the last two slots of its
#: global id map.
_RAIL_LIDS = {"vdd": -1, "gnd": -2}


def csr_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the concatenated CSR segments ``[s, s+c)``.

    The standard vectorized gather: for segment k, emits
    ``starts[k], starts[k]+1, ..., starts[k]+counts[k]-1`` in order.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts  # exclusive prefix sum
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


class _CCCTemplate:
    """One CCC shape's packed-table segment in name-free local id space.

    Chip-scale designs stamp the same cells hundreds of times; every
    stamped instance yields a CCC whose switch graph, geometry, net
    sort order, and port pattern are identical up to a renaming of
    nets.  The build keys CCCs on exactly the inputs its inner loop
    reads (:func:`_template_key`); equal keys guarantee every ordering
    decision -- sorted-net positions, source list, path enumeration
    preorder, wave levels, dirty sets -- coincides, so one template can
    be stamped per instance by substituting names.  The stamped arrays
    are byte-identical to what enumerating the instance directly would
    produce (asserted against the per-instance oracle in
    ``tests/oracles.py`` by tests and the setup benchmark).

    Local id space: channel nets take ids ``0..n-1`` in sorted order
    (so local id == solve position); external gate nets take ids from
    ``n`` up, in first-occurrence order over the transistor list.  The
    source rails are the sentinels -1 (vdd) / -2 (gnd).
    """

    __slots__ = (
        "n", "row_path_counts", "n_conds", "row_wave",
        "affected", "aff_later_counts", "aff_later_flat", "dev_a", "dev_b",
        "dev_gate", "dev_level", "rows_only", "pending", "rows", "walk",
    )

    def __init__(self) -> None:
        self.n = 0
        #: Paths per row and conditions over all of them, exact: bucket
        #: sizes and chain condition counts of the sweep records.
        self.row_path_counts = np.empty(0, np.int64)
        self.n_conds = 0
        self.row_wave = np.empty(0, np.int64)
        #: (trigger lid, sorted position array) pairs, insertion order.
        self.affected: list[tuple[int, np.ndarray]] = []
        #: mid-pass expansion CSR: per-row counts + flat sorted
        #: later-positions.
        self.aff_later_counts = np.empty(0, np.int64)
        self.aff_later_flat = np.empty(0, np.int64)
        #: Live devices: a channel terminal's position (``dev_a``), the
        #: other terminal's position or rail sentinel (``dev_b``), the
        #: gate lid and required level (-1 and 2: a rail gates it on).
        self.dev_a = np.empty(0, np.int64)
        self.dev_b = np.empty(0, np.int64)
        self.dev_gate = np.empty(0, np.int64)
        self.dev_level = np.empty(0, np.int8)
        #: True when reach cannot decide this shape's solves: it holds a
        #: device of non-positive conductance (an on path that is not a
        #: definite drive) or a rail-named channel net.
        self.rows_only = False
        #: Instances not stamped yet; the unrolled rows go at zero.
        self.pending = 0
        #: The unrolled path rows once the first instance is stamped --
        #: ``(path_src_lid, path_src_rail, path_g, path_cond_counts,
        #: cond_gate_lid, cond_level, cond_internal)`` -- and until
        #: then the sweep inputs of the walk (:func:`_unroll`).
        self.rows: tuple | None = None
        self.walk: tuple | None = None

    def path_rows(self) -> tuple:
        if self.rows is None:
            self.rows = _unroll(*self.walk)
            self.walk = None
        return self.rows


def _chain_supports(ts: dict, dev_bits: np.ndarray, dev_cond: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node of a sweep record: the gate-support bits and the number
    of conditions of its whole chain, one pass with parents first.

    ``dev_bits[d]`` holds device ``d``'s gate bit (uint64 words, none
    for a rail-gated device) and ``dev_cond[d]`` its condition count;
    a node's values are its device's ORed / added onto its parent's.
    The nodes are laid out by depth, each level a contiguous run, so
    node ``i``'s values sit at row ``rank[i]`` of the returned
    ``(bits, conds, rank)``.
    """
    par, dev, depth = ts["par"], ts["dev"], ts["depth"]
    order = np.argsort(depth, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    up = rank[par[order]]  # the parent's row; garbage at depth 1
    bits = dev_bits[dev[order]]
    conds = dev_cond[dev[order]]
    cuts = (np.flatnonzero(np.diff(depth[order])) + 1).tolist()
    for a, b in zip(cuts, cuts[1:] + [order.size]):  # depth 1: no parent
        bits[a:b] |= bits[up[a:b]]
        conds[a:b] += conds[up[a:b]]
    return bits, conds, rank


def _unroll(n: int, sweeps: list[dict], per_src: list, src_lid: list[int],
            dev_inv: np.ndarray, dev_bad: np.ndarray, dev_gate: np.ndarray,
            dev_level: np.ndarray) -> tuple:
    """One template's path rows in local id space, from its sweeps.

    Walks each source's sweep record once for all the CCC's channel
    nets: the arrival buckets of a run of positions are unrolled
    together by :func:`~repro.recognition.conduction._chains` (devices
    and arrival ranks, source to target), and one lexsort on (position,
    source in ``[vdd, gnd, sorted ports]`` order, forward rank sequence)
    lays the paths out row by row with every pair in its enumeration
    order, so the segment is byte-identical to a per-pair enumeration
    of the CCC -- including ``path_g``: inverse conductances are added
    column by column from 0.0, and the padding of a short chain reads a
    slot whose inverse is 0.0, which is the per-device series formula's
    sequence.

    A run of positions holds at most ``_WALK_CELLS`` chain cells
    (arrivals times the sweeps' depth), so the walk's transient arrays
    stay bounded however large the CCC's sweeps grow.
    """
    arrivals = [0] * n
    for items in per_src:
        for p, bucket in items:
            arrivals[p] += bucket.size
    depth = max((int(ts["depth"].max()) for ts in sweeps
                 if ts["depth"].size), default=1)
    budget = max(1, _WALK_CELLS // depth)
    cuts = [0]
    held = 0
    for p, count in enumerate(arrivals):
        if held and held + count > budget:
            cuts.append(p)
            held = 0
        held += count
    cuts.append(n)

    dev_has = dev_gate >= 0
    src_lid_arr = np.array(src_lid, np.int64)
    parts: dict[str, list[np.ndarray]] = {
        k: [] for k in ("src", "rail", "g", "pc", "cg", "cl")}
    for pa, pb in zip(cuts[:-1], cuts[1:]):
        walks = []
        for si, items in enumerate(per_src):
            sel = [(p, b) for p, b in items if pa <= p < pb]
            if sel:
                pos = np.repeat(np.array([p for p, _ in sel], np.int64),
                                [b.size for _, b in sel])
                nodes = np.concatenate([b for _, b in sel])
                walks.append((si, pos, *_chains(sweeps[si], nodes,
                                                ranks=True)))
        if not walks:
            continue
        total = sum(w[1].size for w in walks)
        width = max(w[2].shape[1] for w in walks)
        chains = np.full((total, width), -1, np.intc)
        ranks = np.full((total, width), -1, np.intc)
        pos = np.empty(total, np.int64)
        src_of = np.empty(total, np.int64)
        at = 0
        for si, wpos, wslots, wranks in walks:
            m, w = wslots.shape
            chains[at:at + m, :w] = wslots
            ranks[at:at + m, :w] = wranks
            pos[at:at + m] = wpos
            src_of[at:at + m] = si
            at += m
        # Rows by (position, source, forward rank sequence): the
        # per-pair order within each pair (primary key last).
        order = np.lexsort((*ranks.T[::-1], src_of, pos))
        chains, src_of = chains[order], src_of[order]
        # Series conductance: inv += 1/g device by device, left to
        # right from 0.0 (padding adds 0.0, which changes no bit).
        inv = np.zeros(total, np.float64)
        bad = np.zeros(total, bool)
        for col in chains.T:
            inv += dev_inv[col]
            bad |= dev_bad[col]
        pg = np.full(total, np.inf)
        np.divide(1.0, inv, out=pg, where=inv != 0)
        pg[bad] = 0.0
        # Conditions: every non-rail-gated device on the path, in
        # forward order (row-major masked selection).
        has = dev_has[chains]
        cdev = chains[has]
        parts["src"].append(src_lid_arr[src_of])
        parts["rail"].append(src_of < 2)
        parts["g"].append(pg)
        parts["pc"].append(has.sum(axis=1).astype(np.int64))
        parts["cg"].append(dev_gate[cdev])
        parts["cl"].append(dev_level[cdev])

    def cat(key: str, dtype) -> np.ndarray:
        chunks = parts[key]
        return np.concatenate(chunks) if chunks else np.empty(0, dtype)

    cond_gate = cat("cg", np.intc)
    return (cat("src", np.int64), cat("rail", bool), cat("g", np.float64),
            cat("pc", np.int64), cond_gate, cat("cl", np.int8),
            cond_gate < n)


def _template_key(ccc: ChannelConnectedComponent, sorted_nets: list[str],
                  flat: FlatNetlist):
    """(key, local-id name list) for one CCC, or ``(None, names)``.

    The key covers everything the packed build reads: device order,
    polarity, exact geometry, the local-id shape of every terminal
    (rails appearing literally), and per-position port flags.  Returns
    ``None`` as the key for the rail-named-channel-net corner case
    (unregistered rail aliases), where name-based path termination
    inside the enumerator would not survive renaming.
    """
    idx: dict[str, int] = {}
    names: list[str] = []
    for nm in sorted_nets:
        idx[nm] = len(names)
        names.append(nm)
    devs = []
    for t in ccc.transistors:
        gate = t.gate
        if is_rail_name(gate):
            g_repr: object = gate
        else:
            g = idx.get(gate)
            if g is None:
                g = idx[gate] = len(names)
                names.append(gate)
            g_repr = g
        d, s = t.channel_terminals()
        d_repr = idx.get(d, d)  # non-channel terminals are rails: literal
        s_repr = idx.get(s, s)
        devs.append((t.polarity, t.w_um, t.l_um, t.l_add_um,
                     g_repr, d_repr, s_repr))
    ports = tuple(bool(flat.nets[nm].is_port) if nm in flat.nets else False
                  for nm in sorted_nets)
    if any(is_rail_name(nm) for nm in sorted_nets):
        return None, names
    return (len(sorted_nets), ports, tuple(devs)), names


class PackedSwitchTables:
    """Packed solve tables for one flat netlist.

    Build with :meth:`build`; share freely between simulators (of
    either engine) of the *same* (unmutated) netlist.  Path rows are
    stamped per CCC by :meth:`stamp`, which only ever appends.
    """

    def __init__(self) -> None:
        # -- identity --------------------------------------------------
        self.flat: FlatNetlist | None = None
        self.l_min_um: float = 0.35
        self.fingerprint: str = ""
        # -- nets ------------------------------------------------------
        self.net_names: list[str] = []
        self.net_ids: dict[str, int] = {}
        self.n_nets: int = 0
        # -- components ------------------------------------------------
        self.cccs: list[ChannelConnectedComponent] = []
        self.gate_readers: dict[str, list[int]] = {}
        self.port_cccs: dict[str, list[int]] = {}
        self.net_cccs: dict[str, list[int]] = {}
        #: Per CCC: reach cannot decide its solves (see
        #: ``_CCCTemplate.rows_only``), and whether it is stamped.
        self.ccc_rows_only: np.ndarray = np.empty(0, bool)
        self.ccc_stamped: np.ndarray = np.empty(0, bool)
        # -- rows ------------------------------------------------------
        self.n_rows: int = 0
        self.row_net: np.ndarray = np.empty(0, np.int64)
        self.row_name: list[str] = []
        self.row_ccc: np.ndarray = np.empty(0, np.int64)
        self.row_wave: np.ndarray = np.empty(0, np.int64)
        self.ccc_row_start: np.ndarray = np.empty(0, np.int64)
        self.ccc_row_end: np.ndarray = np.empty(0, np.int64)
        self.ccc_rows_arr: list[np.ndarray] = []
        # -- devices CSR -----------------------------------------------
        self.dev_ptr: np.ndarray = np.zeros(1, np.int64)
        self.dev_a: np.ndarray = np.empty(0, np.int64)
        self.dev_b: np.ndarray = np.empty(0, np.int64)
        self.dev_rail: np.ndarray = np.empty(0, np.int64)
        self.dev_gate: np.ndarray = np.empty(0, np.int64)
        self.dev_level: np.ndarray = np.empty(0, np.int8)
        self.dev_internal: np.ndarray = np.empty(0, bool)
        # -- exact table sizes -----------------------------------------
        self.n_paths: int = 0
        self.n_conditions: int = 0
        # -- stamped paths and conditions (append-only) ----------------
        self.row_path_start: np.ndarray = np.empty(0, np.int64)
        self.row_path_count: np.ndarray = np.empty(0, np.int64)
        self.path_src: np.ndarray = np.empty(0, np.int64)
        self.path_src_rail: np.ndarray = np.empty(0, bool)
        self.path_g: np.ndarray = np.empty(0, np.float64)
        self.cond_ptr: np.ndarray = np.zeros(1, np.int64)
        self.cond_gate: np.ndarray = np.empty(0, np.int64)
        self.cond_level: np.ndarray = np.empty(0, np.int8)
        #: True when the condition's gate is a channel net of the row's
        #: own CCC.  Internal gates read the in-evaluation overlay (wave
        #: semantics); external gates must read the pre-pass base state
        #: so speculative writes from *other* CCCs cannot leak in.
        self.cond_internal: np.ndarray = np.empty(0, bool)
        # -- dirty propagation -----------------------------------------
        #: per CCC: trigger net name -> rows to (re-)solve, all positions.
        self.affected_rows: list[dict[str, np.ndarray]] = []
        #: per row (as a changed trigger): same-CCC rows at a later
        #: sorted position -- the mid-pass expansion set.
        self.aff_later_ptr: np.ndarray = np.zeros(1, np.int64)
        self.aff_later_rows: np.ndarray = np.empty(0, np.int64)
        # -- provenance ------------------------------------------------
        #: Wall-clock seconds :meth:`build` spent.
        self.build_wall_s: float = 0.0
        #: CCC instances served from the template cache during build.
        self.template_hits: int = 0
        #: Per CCC: its template and local-id names, for stamping.
        self._plan: list[tuple[_CCCTemplate, list[str]]] = []
        self._store: dict[str, np.ndarray] = {}

    # -- construction --------------------------------------------------

    @staticmethod
    def fingerprint_of(flat: FlatNetlist, l_min_um: float) -> str:
        """Digest of everything the packed build reads from the netlist.

        Covers device topology *and* geometry (conductances come from
        W/L) plus net port-ness (ports become solve sources), so any
        in-place mutation that could change simulation behaviour
        changes the fingerprint.

        Memoized per ``(netlist identity, mutation epoch)``: in-place
        mutators must call :meth:`FlatNetlist.note_mutation` (the
        sizing loop's ``rebuild_connectivity`` does) to advance the
        epoch; a hit with the current epoch skips re-hashing every
        transistor, which otherwise dominates ``matches()`` on the
        cache-hit path.
        """
        epoch = getattr(flat, "mutation_epoch", 0)
        lkey = float(l_min_um)
        memo = getattr(flat, "_switch_fp_memo", None)
        if memo is not None:
            hit = memo.get(lkey)
            if hit is not None and hit[0] == epoch:
                return hit[1]
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((flat.name, float(l_min_um),
                       len(flat.transistors))).encode())
        for t in flat.transistors:
            h.update(repr((t.name, t.polarity, t.gate, t.drain, t.source,
                           t.w_um, t.l_um, t.l_add_um)).encode())
        for name in sorted(flat.nets):
            h.update(repr((name, flat.nets[name].is_port)).encode())
        fp = h.hexdigest()
        if memo is None:
            memo = {}
            flat._switch_fp_memo = memo
        memo[lkey] = (epoch, fp)
        return fp

    @classmethod
    def build(cls, flat: FlatNetlist, l_min_um: float = 0.35,
              cccs: list[ChannelConnectedComponent] | None = None,
              ) -> "PackedSwitchTables":
        """Lay out the solve tables for ``flat``; no path is unrolled.

        ``cccs`` lets a caller share an existing extraction (and its
        warm path caches) -- see :meth:`repro.perf.DesignCache.cccs`;
        ``None`` extracts fresh.  Either way the result is identical.
        """
        t_start = time.perf_counter()
        self = cls()
        self.flat = flat
        self.l_min_um = l_min_um
        self.fingerprint = cls.fingerprint_of(flat, l_min_um)
        self.cccs = extract_cccs(flat) if cccs is None else cccs

        # Net id space: every netlist net plus the canonical rails.
        names = sorted(flat.nets)
        known = set(names)
        for rail in ("vdd", "gnd"):
            if rail not in known:
                names.append(rail)
        self.net_names = names
        self.net_ids = {n: i for i, n in enumerate(names)}
        self.n_nets = len(names)

        # Relative path conductance: W/L weighted by carrier mobility
        # (holes are ~0.4x), so N-vs-P ratio fights resolve like silicon.
        conductance = {
            t.name: (1.0 if t.polarity == "nmos" else 0.4)
                    * t.w_um / t.effective_length(l_min_um)
            for t in flat.transistors
        }

        self._stamp_schedule(flat, self._templates(flat, conductance))
        self.build_wall_s = time.perf_counter() - t_start
        return self

    def _templates(self, flat: FlatNetlist, conductance: dict[str, float]
                   ) -> list[tuple[ChannelConnectedComponent, _CCCTemplate,
                                   list[str]]]:
        """Each CCC with its template and local-id names, in CCC order.

        One :meth:`_compute_template` per CCC shape (:func:`_template_key`);
        every later instance of the shape reuses it.
        """
        templates: dict = {}
        plan = []
        for ccc in self.cccs:
            sorted_nets = sorted(ccc.channel_nets)
            key, local_names = _template_key(ccc, sorted_nets, flat)
            tpl = templates.get(key) if key is not None else None
            if tpl is None:
                tpl = self._compute_template(ccc, sorted_nets, flat,
                                             local_names, conductance)
                tpl.rows_only |= key is None
                if key is not None:
                    templates[key] = tpl
            else:
                self.template_hits += 1
            tpl.pending += 1
            plan.append((ccc, tpl, local_names))
        return plan

    @staticmethod
    def _compute_template(ccc: ChannelConnectedComponent,
                          sorted_nets: list[str], flat: FlatNetlist,
                          local_names: list[str],
                          conductance: dict[str, float]) -> _CCCTemplate:
        """One CCC's schedule, devices and table sizes in local id space.

        Reads one target-rooted sweep per source (vdd, gnd, each port).
        Each record is read once (:func:`_chain_supports`): a (position,
        source) pair's dependencies are the union of its arrivals' chain
        gate supports, and its condition count their chain counts'
        sum.  The path walk itself is left to :func:`_unroll`, on the
        template's first stamp.
        """
        idx = {nm: i for i, nm in enumerate(local_names)}
        n = len(sorted_nets)
        max_paths = 10000
        tpl = _CCCTemplate()
        tpl.n = n
        sources = ["vdd", "gnd"] + sorted(
            nm for nm in ccc.channel_nets if flat.nets[nm].is_port)
        sweeps = [sweep_paths_to_target(ccc, src, max_paths)
                  for src in sources]
        gid_of = switch_graph(ccc)["net_ids"]
        gids = [gid_of.get(net) for net in sorted_nets]
        if any(ts["overflow"] for ts in sweeps):
            # Same raise, for the same first (net, src) pair, as
            # ``conduction_paths`` called pair by pair.
            for net, gid in zip(sorted_nets, gids):
                for src, ts in zip(sources, sweeps):
                    if gid is not None and src != net and gid in ts["overflow"]:
                        raise RuntimeError(
                            f"conduction path enumeration between {net!r} "
                            f"and {src!r} exceeded {max_paths} paths")
        # Per-device tables in local id space, plus a last slot, read by
        # the -1 padding of short chains: no condition, inverse 0.0.
        n_dev = len(ccc.transistors)
        dev_inv = np.zeros(n_dev + 1, np.float64)
        dev_bad = np.zeros(n_dev + 1, bool)
        dev_gate = np.full(n_dev + 1, -1, np.intc)
        dev_level = np.zeros(n_dev + 1, np.int8)
        live: list[tuple[int, int, int, int]] = []
        for di, t in enumerate(ccc.transistors):
            g = conductance[t.name]
            dev_bad[di] = g <= 0
            if g > 0:
                dev_inv[di] = 1.0 / g
            level = 1 if t.polarity == "nmos" else 0
            if is_rail_name(t.gate):
                if is_supply_name(t.gate) != bool(level):
                    continue  # gated off for good: on no path
                gate, level = -1, 2
            else:
                gate = dev_gate[di] = idx[t.gate]
                dev_level[di] = level
            # Channel terminals as positions or source rails; a rail that
            # is no source (an alias) ends paths and feeds none.
            ends = sorted((idx[x] if idx.get(x, n) < n
                           else _RAIL_LIDS.get(x, -3)
                           for x in t.channel_terminals()), reverse=True)
            if ends[0] >= 0 and ends[1] >= -2:
                live.append((ends[0], ends[1], gate, level))
        tpl.rows_only = bool(dev_bad.any())
        cols = np.array(live, np.int64).reshape(-1, 4)
        tpl.dev_a, tpl.dev_b, tpl.dev_gate = cols[:, 0], cols[:, 1], cols[:, 2]
        tpl.dev_level = cols[:, 3].astype(np.int8)
        src_lid = [-1, -2] + [idx[src] for src in sources[2:]]

        # One pass over each sweep record: every (position, source)
        # pair's path count, condition count and gate support -- a bit
        # per distinct gate, ascending.
        gated = np.flatnonzero(dev_gate >= 0)
        # The distinct gate ids, ascending (``np.unique`` would import
        # ``numpy.ma``, which nothing else here needs).
        gates = np.flatnonzero(np.bincount(dev_gate[gated]))
        bit = np.searchsorted(gates, dev_gate[gated])
        dev_bits = np.zeros((n_dev + 1, max(1, -(-gates.size // 64))),
                            np.uint64)
        dev_bits[gated, bit >> 6] = np.left_shift(
            np.uint64(1), (bit & 63).astype(np.uint64))
        dev_cond = (dev_gate >= 0).astype(np.int64)
        per_src: list[list[tuple[int, np.ndarray]]] = []
        row_paths = np.zeros(n, np.int64)
        pair_pos, pair_src, pair_bits = [], [], []
        for si, (src, ts) in enumerate(zip(sources, sweeps)):
            buckets = ts["buckets"]
            items = []
            for p, (net, gid) in enumerate(zip(sorted_nets, gids)):
                if gid is None or net == src:
                    continue
                bucket = buckets.get(gid)
                if bucket is not None and bucket.size:
                    items.append((p, bucket))
            per_src.append(items)
            if not items:
                continue
            bits, conds, rank = _chain_supports(ts, dev_bits, dev_cond)
            nodes = rank[np.concatenate([b for _, b in items])]
            sizes = np.array([b.size for _, b in items], np.int64)
            heads = np.cumsum(sizes) - sizes
            pos = np.array([p for p, _ in items], np.int64)
            row_paths[pos] += sizes
            tpl.n_conds += int(conds[nodes].sum())
            pair_pos.append(pos)
            pair_src.append(np.full(pos.size, si, np.int64))
            pair_bits.append(np.bitwise_or.reduceat(bits[nodes], heads,
                                                    axis=0))
        tpl.row_path_counts = row_paths
        tpl.walk = (n, sweeps, per_src, src_lid, dev_inv, dev_bad,
                    dev_gate, dev_level)

        # Dependencies, added in the per-pair loop's order -- pairs by
        # (position, source), each its port id and then its sorted
        # gates -- so every set iterates as it did pair by pair.
        deps_of: list[set[int]] = [{p} for p in range(n)]
        if pair_pos:
            pos = np.concatenate(pair_pos)
            src_of = np.concatenate(pair_src)
            order = np.lexsort((src_of, pos))
            seen = np.unpackbits(
                np.concatenate(pair_bits)[order].astype("<u8").view(np.uint8),
                axis=1, bitorder="little")[:, :gates.size]
            run_of, gate_of = np.nonzero(seen)  # by pair, gate ascending
            bounds = np.searchsorted(run_of, np.arange(order.size + 1))
            gate_of = gates[gate_of].tolist()
            for (p, si), a, b in zip(
                    zip(pos[order].tolist(), src_of[order].tolist()),
                    bounds[:-1].tolist(), bounds[1:].tolist()):
                deps = deps_of[p]
                if si >= 2:
                    deps.add(src_lid[si])
                deps.update(gate_of[a:b])

        # Static wave levels.  Two constraints (see module docs):
        #   wave(net) > wave(d)   for deps d at an earlier position
        #     (net must see d's freshly-applied value), and
        #   wave(net) >= wave(r)  for readers r at an earlier
        #     position that depend on net (r must still see net's
        #     pre-pass value when it solves).
        # Every constraint edge runs from an earlier to a later sorted
        # position, so one ascending pass reaches the fixpoint.  Local
        # ids below n are exactly the sorted positions.
        readers_of: dict[int, list[int]] = {}
        for p in range(n):
            for dd in deps_of[p]:
                if dd < n and dd > p:
                    readers_of.setdefault(dd, []).append(p)
        wave = [0] * n
        for p in range(n):
            w = 0
            for dd in deps_of[p]:
                if dd < n and dd < p:
                    w = max(w, wave[dd] + 1)
            for r in readers_of.get(p, ()):
                w = max(w, wave[r])
            wave[p] = w
        tpl.row_wave = np.array(wave, np.int64)

        # Dirty propagation: trigger -> positions, and per-position
        # expansion restricted to later positions (what the sequential
        # pass would still reach after the trigger changed).
        affected: dict[int, set[int]] = {}
        for p in range(n):
            for trig in deps_of[p]:
                affected.setdefault(trig, set()).add(p)
        tpl.affected = [(trig, np.array(sorted(ps), np.int64))
                        for trig, ps in affected.items()]
        al_counts: list[int] = []
        al_flat: list[int] = []
        for p in range(n):
            later = sorted(q for q in affected.get(p, ()) if q > p)
            al_counts.append(len(later))
            al_flat.extend(later)
        tpl.aff_later_counts = np.array(al_counts, np.int64)
        tpl.aff_later_flat = np.array(al_flat, np.int64)
        return tpl

    def _stamp_schedule(self, flat: FlatNetlist,
                        plan: list[tuple[ChannelConnectedComponent,
                                         _CCCTemplate, list[str]]]) -> None:
        """Stamp every CCC's rows, waves, dirty sets and devices, in CCC
        order; the path rows wait for :meth:`stamp`.

        Stamping substitutes global ids for a template's local ids and
        offsets rows by the instance's first row; every other decision
        is baked into the template.  Each array is allocated once at its
        final size and filled slice by slice.
        """
        nid = self.net_ids
        rails = [nid["gnd"], nid["vdd"]]  # the sentinels -2, -1
        sizes = np.array(
            [(tpl.n, tpl.aff_later_flat.size, tpl.dev_a.size)
             for _, tpl, _ in plan], np.int64).reshape(-1, 3)
        offs = np.zeros((len(plan) + 1, 3), np.int64)
        np.cumsum(sizes, axis=0, out=offs[1:])
        n_rows, n_later, n_devs = offs[-1].tolist()
        self.n_rows = n_rows
        self.row_net = np.empty(n_rows, np.int64)
        self.row_ccc = np.empty(n_rows, np.int64)
        self.row_wave = np.empty(n_rows, np.int64)
        self.row_path_count = np.empty(n_rows, np.int64)
        self.row_path_start = np.full(n_rows, -1, np.int64)
        self.aff_later_ptr = np.zeros(n_rows + 1, np.int64)
        self.aff_later_rows = np.empty(n_later, np.int64)
        self.dev_ptr = offs[:, 2].copy()
        self.dev_a = np.empty(n_devs, np.int64)
        self.dev_b = np.empty(n_devs, np.int64)
        self.dev_rail = np.empty(n_devs, np.int64)
        self.dev_gate = np.empty(n_devs, np.int64)
        self.dev_level = np.empty(n_devs, np.int8)
        self.dev_internal = np.empty(n_devs, bool)
        self.ccc_rows_only = np.array([tpl.rows_only for _, tpl, _ in plan],
                                      bool)
        self.ccc_stamped = np.zeros(len(plan), bool)
        for (ccc, tpl, names), (r0, a0, d0), (r1, a1, d1) in zip(
                plan, offs[:-1].tolist(), offs[1:].tolist()):
            gmap = np.array([nid[nm] for nm in names] + rails, np.int64)
            self.row_net[r0:r1] = gmap[:tpl.n]
            self.row_ccc[r0:r1] = ccc.index
            self.row_wave[r0:r1] = tpl.row_wave
            self.row_path_count[r0:r1] = tpl.row_path_counts
            self.aff_later_ptr[r0 + 1:r1 + 1] = tpl.aff_later_counts
            np.add(tpl.aff_later_flat, r0, out=self.aff_later_rows[a0:a1])
            b, gate = tpl.dev_b, tpl.dev_gate
            np.add(tpl.dev_a, r0, out=self.dev_a[d0:d1])
            self.dev_b[d0:d1] = np.where(b >= 0, b + r0, -1)
            self.dev_rail[d0:d1] = np.where(b < 0, gmap[b], -1)
            self.dev_gate[d0:d1] = np.where(gate >= 0, gmap[gate], -1)
            self.dev_level[d0:d1] = tpl.dev_level
            self.dev_internal[d0:d1] = (gate >= 0) & (gate < tpl.n)
            self.n_conditions += tpl.n_conds
            self.affected_rows.append({
                names[lid]: r0 + arr for lid, arr in tpl.affected})
            for gate_net in ccc.gate_nets():
                self.gate_readers.setdefault(gate_net, []).append(ccc.index)
            for net in ccc.channel_nets:
                self.net_cccs.setdefault(net, []).append(ccc.index)
                if flat.nets[net].is_port:
                    self.port_cccs.setdefault(net, []).append(ccc.index)
            self._plan.append((tpl, names))
        np.cumsum(self.aff_later_ptr, out=self.aff_later_ptr)
        self.n_paths = int(self.row_path_count.sum())
        self.row_name = [self.net_names[i] for i in self.row_net.tolist()]
        self.ccc_row_start = offs[:-1, 0].copy()
        self.ccc_row_end = offs[1:, 0].copy()
        self.ccc_rows_arr = [np.arange(a, b, dtype=np.int64) for a, b in
                             zip(self.ccc_row_start.tolist(),
                                 self.ccc_row_end.tolist())]

    # -- stamping path rows --------------------------------------------

    @property
    def stamped_paths(self) -> int:
        """Paths stamped so far, over every stamped CCC."""
        return int(self.path_src.size)

    def stamp(self, cccs: Iterable[int]) -> None:
        """Stamp the path rows of CCCs ``cccs`` (indices), each once.

        A CCC's rows are appended to the path store in row order, from
        its template's unrolled rows (unrolled on the template's first
        stamp, dropped after its last); an already-stamped CCC is
        skipped.  The store's arrays are replaced when they grow, so
        read them from the tables after each call.
        """
        todo = list(dict.fromkeys(
            int(i) for i in cccs if not self.ccc_stamped[i]))
        if not todo:
            return
        n_p, n_c = self.path_src.size, self.cond_gate.size
        parts = []
        for i in todo:
            tpl, names = self._plan[i]
            rows = tpl.path_rows()
            parts.append((i, tpl, names, rows))
            tpl.pending -= 1
            if not tpl.pending:
                tpl.rows = None
        new_p = n_p + sum(rows[2].size for *_, rows in parts)
        new_c = n_c + sum(rows[4].size for *_, rows in parts)
        path_src = self._grown("path_src", new_p)
        path_src_rail = self._grown("path_src_rail", new_p)
        path_g = self._grown("path_g", new_p)
        cond_ptr = self._grown("cond_ptr", new_p + 1)
        cond_gate = self._grown("cond_gate", new_c)
        cond_level = self._grown("cond_level", new_c)
        cond_internal = self._grown("cond_internal", new_c)
        nid = self.net_ids
        rails = [nid["gnd"], nid["vdd"]]
        p0, c0 = n_p, n_c
        for i, tpl, names, (src, rail, g, pc, cg, cl, ci) in parts:
            gmap = np.array([nid[nm] for nm in names] + rails, np.int64)
            p1, c1 = p0 + g.size, c0 + cg.size
            r0 = int(self.ccc_row_start[i])
            counts = tpl.row_path_counts
            self.row_path_start[r0:r0 + tpl.n] = p0 + np.cumsum(counts) - counts
            np.take(gmap, src, out=path_src[p0:p1])
            path_src_rail[p0:p1] = rail
            path_g[p0:p1] = g
            np.cumsum(pc, out=cond_ptr[p0 + 1:p1 + 1])
            cond_ptr[p0 + 1:p1 + 1] += c0
            np.take(gmap, cg, out=cond_gate[c0:c1])
            cond_level[c0:c1] = cl
            cond_internal[c0:c1] = ci
            self.ccc_stamped[i] = True
            p0, c0 = p1, c1
        self.path_src, self.path_src_rail, self.path_g = (
            path_src[:p0], path_src_rail[:p0], path_g[:p0])
        self.cond_ptr = cond_ptr[:p0 + 1]
        self.cond_gate, self.cond_level, self.cond_internal = (
            cond_gate[:c0], cond_level[:c0], cond_internal[:c0])

    def _grown(self, name: str, size: int) -> np.ndarray:
        """The store buffer behind array ``name``, holding at least
        ``size`` entries: reallocated at twice its old capacity (or
        exactly ``size``, if more) when short, current entries copied."""
        used = getattr(self, name)
        buf = self._store.get(name, used)
        if buf.size < size:
            grown = np.empty(max(size, 2 * buf.size), used.dtype)
            grown[:used.size] = used
            self._store[name] = buf = grown
        return buf

    # -- introspection -------------------------------------------------

    def matches(self, flat: FlatNetlist, l_min_um: float) -> bool:
        """True when these tables are still valid for ``flat``."""
        return (self.l_min_um == l_min_um
                and self.fingerprint == self.fingerprint_of(flat, l_min_um))

    def counters(self) -> dict[str, int]:
        return {
            "packed_rows": self.n_rows,
            "packed_paths": self.n_paths,
            "packed_conditions": self.n_conditions,
            "packed_max_wave": int(self.row_wave.max())
            if self.n_rows else 0,
            "packed_template_hits": self.template_hits,
        }
