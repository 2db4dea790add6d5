"""Packed array form of the switch-level simulation tables.

:class:`PackedSwitchTables` holds every CCC's pre-enumerated conduction
paths as flat numpy arrays, the one table build both simulation
engines read: the reference engine walks a row's paths one by one, and
the vector engine solves whole batches of channel nets with array ops:

* **rows** -- one row per (CCC, channel net), ordered by CCC index then
  sorted net name.  This is the global solve space; a row id identifies
  both the net and the owning component.
* **paths CSR** -- ``path_ptr[row] : path_ptr[row+1]`` slices the per-row
  conduction paths (source net, rail flag, series conductance), laid out
  in accumulation order (source entries in ``[vdd, gnd, sorted ports]``
  order, enumeration order within an entry), so the vector engine's
  masked segment sums reproduce the reference engine's walk bit for
  bit.
* **conditions CSR** -- ``cond_ptr[path] : cond_ptr[path+1]`` slices the
  (gate net, required level) pairs that must hold for the path to
  conduct.
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
* **gate-update maps** -- ``net_cond_all`` / ``net_cond_int``: per gate
  net and required level, the paths with a condition on it and how
  many, so a net change shifts the vector engine's per-path counters
  without reading a condition.

The build computes one template per CCC shape and stamps it per
instance (:class:`_CCCTemplate`).  A template walks each source's
sweep record once for all of the CCC's channel nets -- chunks of whole
positions under a constant cell budget, one chain walk per source and
one lexsort per chunk -- and groups its own conditions once by (gate,
section); stamping offsets those groups by each instance's first path,
and one sort over the stamped groups (not over the conditions) orders
the maps.  Every array is allocated at its final size and filled by
slice.

Tables depend only on the flat netlist topology/geometry and
``l_min_um``; they are immutable once built and safe to share across
simulators.  :meth:`fingerprint_of` digests everything the build read,
so caches (see :meth:`repro.perf.DesignCache.switch_tables`) can detect
in-place netlist mutation (e.g. a sizing loop resizing devices) and
rebuild instead of serving stale conductances.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.netlist.flatten import FlatNetlist
from repro.netlist.nets import is_rail_name
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
    """One CCC's packed-table segment in name-free local id space.

    Chip-scale designs stamp the same cells hundreds of times; every
    stamped instance yields a CCC whose switch graph, geometry, net
    sort order, and port pattern are identical up to a renaming of
    nets.  The build keys CCCs on exactly the inputs its inner loop
    reads (:func:`_template_key`); equal keys guarantee every ordering
    decision -- sorted-net positions, source list, path enumeration
    preorder, wave levels, dirty sets -- coincides, so one enumerated
    template can be stamped per instance by substituting names.  The
    stamped arrays are byte-identical to what enumerating the instance
    directly would produce (asserted against the per-instance oracle in
    ``tests/oracles.py`` by tests and the setup benchmark).

    Local id space: channel nets take ids ``0..n-1`` in sorted order
    (so local id == solve position); external gate nets take ids from
    ``n`` up, in first-occurrence order over the transistor list.  Rail
    path sources are the sentinels -1 (vdd) / -2 (gnd).
    """

    __slots__ = (
        "n", "row_path_counts", "path_src_lid", "path_src_rail", "path_g",
        "path_cond_counts", "cond_gate_lid", "cond_level", "cond_internal",
        "row_wave", "affected", "aff_later_counts", "aff_later_flat",
        "grp_lid", "grp_sec", "grp_size", "grp_start", "ent_path",
        "ent_mult",
    )

    def __init__(self) -> None:
        self.n = 0
        #: numpy columns mirroring the packed arrays, in local id space;
        #: stamping copies them into the tables' slices.  Path sources
        #: use the rail sentinels; gate ids are local.
        self.row_path_counts = np.empty(0, np.int64)
        self.path_src_lid = np.empty(0, np.int64)
        self.path_src_rail = np.empty(0, bool)
        self.path_g = np.empty(0, np.float64)
        self.path_cond_counts = np.empty(0, np.int64)
        self.cond_gate_lid = np.empty(0, np.intc)
        self.cond_level = np.empty(0, np.int8)
        self.cond_internal = np.empty(0, bool)
        self.row_wave = np.empty(0, np.int64)
        #: (trigger lid, sorted position array) pairs, insertion order.
        self.affected: list[tuple[int, np.ndarray]] = []
        #: mid-pass expansion CSR: per-row counts + flat sorted
        #: later-positions.
        self.aff_later_counts = np.empty(0, np.int64)
        self.aff_later_flat = np.empty(0, np.int64)
        #: Condition groups by (gate lid, section), ascending, with
        #: section ``2 * level + external``: each group's size and first
        #: entry, and per entry a local path id (ascending within the
        #: group) with its condition multiplicity.
        self.grp_lid = np.empty(0, np.int64)
        self.grp_sec = np.empty(0, np.int64)
        self.grp_size = np.empty(0, np.int64)
        self.grp_start = np.empty(0, np.int64)
        self.ent_path = np.empty(0, np.int32)
        self.ent_mult = np.empty(0, np.int32)


def _group_conditions(tpl: _CCCTemplate, n_loc: int) -> None:
    """Group ``tpl``'s conditions by (gate lid, section), once per
    template.

    Section ``2 * level + external`` orders each gate's groups by level
    and puts its internal group first.  Within a group the entries are
    the distinct local paths, ascending, each with the number of its
    conditions in the group.  The keys stay below ``4 * n_loc``, which
    for all but huge CCCs fits 16 bits and numpy's radix sort.
    """
    size = tpl.cond_level.size
    if not size:
        return
    cpath = np.repeat(np.arange(tpl.path_g.size, dtype=np.int32),
                      tpl.path_cond_counts)
    key = tpl.cond_gate_lid.astype(np.int16 if 4 * n_loc < 2 ** 15
                                   else np.int32)
    key *= 4
    key += tpl.cond_level * 2
    key += ~tpl.cond_internal
    order = np.argsort(key, kind="stable")
    keys, cpath = key[order], cpath[order]
    runs = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1])
                                | (cpath[1:] != cpath[:-1])])
    tpl.ent_path = cpath[runs]
    tpl.ent_mult = np.diff(np.r_[runs, size]).astype(np.int32)
    run_keys = keys[runs].astype(np.int64)
    heads = np.flatnonzero(np.r_[True, run_keys[1:] != run_keys[:-1]])
    tpl.grp_lid, tpl.grp_sec = np.divmod(run_keys[heads], 4)
    tpl.grp_start = heads.astype(np.int64)
    tpl.grp_size = np.diff(np.r_[heads, runs.size]).astype(np.int64)


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
    """Immutable packed solve tables for one flat netlist.

    Build with :meth:`build`; share freely between simulators (of
    either engine) of the *same* (unmutated) netlist.
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
        # -- rows ------------------------------------------------------
        self.n_rows: int = 0
        self.row_net: np.ndarray = np.empty(0, np.int64)
        self.row_name: list[str] = []
        self.row_ccc: np.ndarray = np.empty(0, np.int64)
        self.row_wave: np.ndarray = np.empty(0, np.int64)
        self.ccc_row_start: np.ndarray = np.empty(0, np.int64)
        self.ccc_row_end: np.ndarray = np.empty(0, np.int64)
        self.ccc_rows_arr: list[np.ndarray] = []
        # -- paths CSR -------------------------------------------------
        self.path_ptr: np.ndarray = np.zeros(1, np.int64)
        self.path_src: np.ndarray = np.empty(0, np.int64)
        self.path_src_rail: np.ndarray = np.empty(0, bool)
        self.path_g: np.ndarray = np.empty(0, np.float64)
        # -- conditions CSR --------------------------------------------
        self.cond_ptr: np.ndarray = np.zeros(1, np.int64)
        self.cond_gate: np.ndarray = np.empty(0, np.int64)
        self.cond_level: np.ndarray = np.empty(0, np.int8)
        #: True when the condition's gate is a channel net of the row's
        #: own CCC.  Internal gates read the in-evaluation overlay (wave
        #: semantics); external gates must read the pre-pass base state
        #: so speculative writes from *other* CCCs cannot leak in.
        self.cond_internal: np.ndarray = np.empty(0, bool)
        #: Owning path of each condition (the CSR row, materialized).
        self.cond_path: np.ndarray = np.empty(0, np.int32)
        #: Per gate-net incremental update lists: net id -> per required
        #: level, ``(path ids, multiplicity)`` or ``None``.  When the
        #: net's value changes, every listed path's blocking/unknown
        #: condition counters shift by a *scalar* delta times the
        #: multiplicity -- the engine never re-reads gate values per
        #: condition (see ``VectorSwitchSimulator._shift_cond``).
        #: ``net_cond_all`` covers every condition on the net (committed
        #: value changes); ``net_cond_int`` only the conditions inside
        #: the net's owning CCC (speculative mid-pass changes, which
        #: must stay invisible to other CCCs).
        self.net_cond_all: dict[int, tuple] = {}
        self.net_cond_int: dict[int, tuple] = {}
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
        """Enumerate and pack the solve tables for ``flat``.

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

        self._stamp(flat, self._templates(flat, conductance))
        # Each condition's owning path (the CSR row, materialized).
        self.cond_path = np.repeat(
            np.arange(self.path_src.size, dtype=np.int32),
            np.diff(self.cond_ptr))

        starts: list[int] = []
        ends: list[int] = []
        cursor = 0
        for ccc in self.cccs:
            n = len(ccc.channel_nets)
            starts.append(cursor)
            ends.append(cursor + n)
            self.ccc_rows_arr.append(
                np.arange(cursor, cursor + n, dtype=np.int64))
            cursor += n
        self.ccc_row_start = np.array(starts, np.int64)
        self.ccc_row_end = np.array(ends, np.int64)
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
                if key is not None:
                    templates[key] = tpl
            else:
                self.template_hits += 1
            plan.append((ccc, tpl, local_names))
        return plan

    @staticmethod
    def _compute_template(ccc: ChannelConnectedComponent,
                          sorted_nets: list[str], flat: FlatNetlist,
                          local_names: list[str],
                          conductance: dict[str, float]) -> _CCCTemplate:
        """Enumerate one CCC's packed segment in local id space.

        Reads one target-rooted sweep per source (vdd, gnd, each port)
        and walks each sweep once for all the CCC's channel nets: the
        arrival buckets of a run of positions are unrolled together by
        :func:`~repro.recognition.conduction._chains` (devices and
        arrival ranks, source to target), and one lexsort on (position,
        source in ``[vdd, gnd, sorted ports]`` order, forward rank
        sequence) lays the paths out row by row with every pair in its
        enumeration order, so the segment is
        byte-identical to a per-pair enumeration of this CCC -- including
        ``path_g``: inverse conductances are added column by column from
        0.0, and the padding of a short chain reads a slot whose inverse
        is 0.0, which is the per-device series formula's sequence.

        A run of positions holds at most ``_WALK_CELLS`` chain cells
        (arrivals times the sweeps' depth), so the walk's transient
        arrays stay bounded however large the CCC's sweeps grow.
        """
        idx = {nm: i for i, nm in enumerate(local_names)}
        n = len(sorted_nets)
        n_loc = len(local_names)
        max_paths = 10000
        tpl = _CCCTemplate()
        tpl.n = n
        sources = ["vdd", "gnd"] + sorted(
            nm for nm in ccc.channel_nets if flat.nets[nm].is_port)
        n_src = len(sources)
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
        for di, t in enumerate(ccc.transistors):
            g = conductance[t.name]
            dev_bad[di] = g <= 0
            if g > 0:
                dev_inv[di] = 1.0 / g
            if not is_rail_name(t.gate):
                dev_gate[di] = idx[t.gate]
                dev_level[di] = 1 if t.polarity == "nmos" else 0
        dev_has = dev_gate >= 0
        src_lid = [-1, -2] + [idx[src] for src in sources[2:]]

        # Each source's non-empty buckets by position, and the chunks:
        # runs of whole positions under the cell budget.
        per_src: list[list[tuple[int, np.ndarray]]] = [[] for _ in sources]
        arrivals = [0] * n
        for si, (src, ts) in enumerate(zip(sources, sweeps)):
            buckets = ts["buckets"]
            for p, (net, gid) in enumerate(zip(sorted_nets, gids)):
                if gid is None or net == src:
                    continue
                bucket = buckets.get(gid)
                if bucket is not None and bucket.size:
                    per_src[si].append((p, bucket))
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

        deps_of: list[set[int]] = [{p} for p in range(n)]
        parts: dict[str, list[np.ndarray]] = {
            k: [] for k in ("rows", "src", "rail", "g", "pc", "cg", "cl")}
        src_lid_arr = np.array(src_lid, np.int64)
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
                parts["rows"].append(np.zeros(pb - pa, np.int64))
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
            chains, pos, src_of = chains[order], pos[order], src_of[order]
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
            cgate = dev_gate[cdev]
            ccount = has.sum(axis=1)
            # Dependencies, added in the per-pair loop's order -- per
            # source, its port id and then its paths' sorted gates -- so
            # every set iterates as it did pair by pair.
            # Paths come sorted by (position, source): number the pairs,
            # and mark each pair's gates in a (pair, gate) bitmap -- at
            # most 60,900 cells for any template of chip_scale(10000).
            pair = pos * n_src + src_of
            step = np.r_[True, pair[1:] != pair[:-1]]
            seen = np.zeros((int(step.sum()), n_loc), bool)
            seen[np.repeat(np.cumsum(step) - 1, ccount), cgate] = True
            run_of, gate_of = np.nonzero(seen)  # by pair, gate ascending
            run_of, gate_of = run_of.tolist(), gate_of.tolist()
            j = 0
            for run, key in enumerate(pair[step].tolist()):
                p, si = divmod(key, n_src)
                deps = deps_of[p]
                if si >= 2:
                    deps.add(src_lid[si])
                while j < len(run_of) and run_of[j] == run:
                    deps.add(gate_of[j])
                    j += 1
            parts["rows"].append(np.bincount(pos - pa, minlength=pb - pa))
            parts["src"].append(src_lid_arr[src_of])
            parts["rail"].append(src_of < 2)
            parts["g"].append(pg)
            parts["pc"].append(ccount.astype(np.int64))
            parts["cg"].append(cgate)
            parts["cl"].append(dev_level[cdev])

        def cat(key: str, dtype) -> np.ndarray:
            chunks = parts[key]
            return (np.concatenate(chunks) if chunks
                    else np.empty(0, dtype))

        tpl.row_path_counts = cat("rows", np.int64)
        tpl.path_src_lid = cat("src", np.int64)
        tpl.path_src_rail = cat("rail", bool)
        tpl.path_g = cat("g", np.float64)
        tpl.path_cond_counts = cat("pc", np.int64)
        tpl.cond_gate_lid = cat("cg", np.intc)
        tpl.cond_level = cat("cl", np.int8)
        tpl.cond_internal = tpl.cond_gate_lid < n
        del parts

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
        _group_conditions(tpl, n_loc)
        return tpl

    def _stamp(self, flat: FlatNetlist,
               plan: list[tuple[ChannelConnectedComponent, _CCCTemplate,
                                list[str]]]) -> None:
        """Stamp every CCC's template into the tables, in CCC order.

        Stamping substitutes global net ids for a template's local ids
        and offsets rows and paths by the instance's first row and path;
        every other decision is baked into the template, so the tables
        equal per-instance enumeration byte for byte.  Each array is
        allocated once at its final size and filled slice by slice.
        """
        nid = self.net_ids
        rails = [nid["gnd"], nid["vdd"]]  # the path sentinels -2, -1
        sizes = np.array(
            [(tpl.n, tpl.path_g.size, tpl.cond_level.size,
              tpl.aff_later_flat.size, tpl.grp_lid.size)
             for _, tpl, _ in plan], np.int64).reshape(-1, 5)
        offs = np.zeros((len(plan) + 1, 5), np.int64)
        np.cumsum(sizes, axis=0, out=offs[1:])
        n_rows, n_paths, n_conds, n_later, n_groups = offs[-1].tolist()
        self.n_rows = n_rows
        self.row_net = np.empty(n_rows, np.int64)
        self.row_ccc = np.empty(n_rows, np.int64)
        self.row_wave = np.empty(n_rows, np.int64)
        self.path_ptr = np.zeros(n_rows + 1, np.int64)
        self.path_src = np.empty(n_paths, np.int64)
        self.path_src_rail = np.empty(n_paths, bool)
        self.path_g = np.empty(n_paths, np.float64)
        self.cond_ptr = np.zeros(n_paths + 1, np.int64)
        self.cond_gate = np.empty(n_conds, np.int64)
        self.cond_level = np.empty(n_conds, np.int8)
        self.cond_internal = np.empty(n_conds, bool)
        self.aff_later_ptr = np.zeros(n_rows + 1, np.int64)
        self.aff_later_rows = np.empty(n_later, np.int64)
        grp_key = np.empty(n_groups, np.int64)
        grp_size = np.empty(n_groups, np.int64)
        for (ccc, tpl, names), (r0, p0, c0, a0, g0), (r1, p1, c1, a1, g1) in zip(
                plan, offs[:-1].tolist(), offs[1:].tolist()):
            gmap = np.array([nid[nm] for nm in names] + rails, np.int64)
            self.row_net[r0:r1] = gmap[:tpl.n]
            self.row_ccc[r0:r1] = ccc.index
            self.row_wave[r0:r1] = tpl.row_wave
            self.path_ptr[r0 + 1:r1 + 1] = tpl.row_path_counts
            np.take(gmap, tpl.path_src_lid, out=self.path_src[p0:p1])
            self.path_src_rail[p0:p1] = tpl.path_src_rail
            self.path_g[p0:p1] = tpl.path_g
            self.cond_ptr[p0 + 1:p1 + 1] = tpl.path_cond_counts
            np.take(gmap, tpl.cond_gate_lid, out=self.cond_gate[c0:c1])
            self.cond_level[c0:c1] = tpl.cond_level
            self.cond_internal[c0:c1] = tpl.cond_internal
            self.aff_later_ptr[r0 + 1:r1 + 1] = tpl.aff_later_counts
            np.add(tpl.aff_later_flat, r0, out=self.aff_later_rows[a0:a1])
            grp_key[g0:g1] = gmap[tpl.grp_lid] * 4 + tpl.grp_sec
            grp_size[g0:g1] = tpl.grp_size
            self.affected_rows.append({
                names[lid]: r0 + arr for lid, arr in tpl.affected})
            for gate in ccc.gate_nets():
                self.gate_readers.setdefault(gate, []).append(ccc.index)
            for net in ccc.channel_nets:
                self.net_cccs.setdefault(net, []).append(ccc.index)
                if flat.nets[net].is_port:
                    self.port_cccs.setdefault(net, []).append(ccc.index)
        np.cumsum(self.path_ptr, out=self.path_ptr)
        np.cumsum(self.cond_ptr, out=self.cond_ptr)
        np.cumsum(self.aff_later_ptr, out=self.aff_later_ptr)
        self.row_name = [self.net_names[i] for i in self.row_net.tolist()]
        if n_groups:
            self._stamp_gate_maps(plan, offs, grp_key, grp_size)

    def _stamp_gate_maps(self, plan, offs: np.ndarray, grp_key: np.ndarray,
                         grp_size: np.ndarray) -> None:
        """Lay out ``net_cond_all``/``net_cond_int`` from the stamped
        condition groups (``grp_key``: global gate id * 4 + section).

        The groups are ordered by (gate net, level, internal first); a
        stable sort keeps CCC order, i.e. ascending paths, within each
        net's section.  A net value change shifts the grouped paths'
        bad/unknown counters by one scalar delta each -- O(fan-out) with
        no per-condition value reads.
        """
        n_groups = grp_key.size
        order = np.argsort(grp_key, kind="stable")
        placed = grp_size[order]
        first = np.empty(n_groups, np.int64)
        first[order] = np.cumsum(placed) - placed
        n_ent = int(grp_size.sum())
        paths = np.empty(n_ent, np.int32)
        mult = np.empty(n_ent, np.int32)
        step = np.arange(max((tpl.ent_path.size for _, tpl, _ in plan),
                             default=0), dtype=np.int64)
        for (_, tpl, _), (p0, g0), g1 in zip(
                plan, offs[:-1, [1, 4]].tolist(), offs[1:, 4].tolist()):
            dest = np.repeat(first[g0:g1] - tpl.grp_start, tpl.grp_size)
            dest += step[:dest.size]
            paths[dest] = tpl.ent_path + p0
            mult[dest] = tpl.ent_mult
        keys = grp_key[order]
        heads = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        bounds = np.r_[first[order][heads], n_ent].tolist()
        spans: dict[int, list] = {}
        for key, a, b in zip(keys[heads].tolist(), bounds[:-1], bounds[1:]):
            net, sec = divmod(key, 4)
            spans.setdefault(net, [None] * 4)[sec] = (a, b)

        def entry(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
            return paths[a:b], mult[a:b]

        for net, (i0, e0, i1, e1) in spans.items():
            # Internal then external per level: one contiguous span.
            self.net_cond_all[net] = tuple(
                None if i is None and e is None
                else entry((i or e)[0], (e or i)[1])
                for i, e in ((i0, e0), (i1, e1)))
            if i0 is not None or i1 is not None:
                self.net_cond_int[net] = tuple(
                    None if i is None else entry(*i) for i in (i0, i1))

    # -- introspection -------------------------------------------------

    def matches(self, flat: FlatNetlist, l_min_um: float) -> bool:
        """True when these tables are still valid for ``flat``."""
        return (self.l_min_um == l_min_um
                and self.fingerprint == self.fingerprint_of(flat, l_min_um))

    def counters(self) -> dict[str, int]:
        return {
            "packed_rows": self.n_rows,
            "packed_paths": int(self.path_src.size),
            "packed_conditions": int(self.cond_gate.size),
            "packed_max_wave": int(self.row_wave.max())
            if self.n_rows else 0,
            "packed_template_hits": self.template_hits,
        }
