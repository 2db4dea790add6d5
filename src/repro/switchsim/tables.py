"""Packed array form of the switch-level simulation tables.

The reference engine keeps its pre-enumerated conduction paths in
per-CCC Python dicts; :class:`PackedSwitchTables` lowers exactly the
same data into flat numpy arrays so the vector engine can solve whole
batches of channel nets with array ops:

* **rows** -- one row per (CCC, channel net), ordered by CCC index then
  sorted net name.  This is the global solve space; a row id identifies
  both the net and the owning component.
* **paths CSR** -- ``path_ptr[row] : path_ptr[row+1]`` slices the per-row
  conduction paths (source net, rail flag, series conductance), laid out
  in the reference engine's accumulation order (source entries in
  ``[vdd, gnd, sorted ports]`` order, enumeration order within an
  entry), so masked segment sums reproduce its float results bit for
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
    _graph as switch_graph,
    sweep_paths_to_target,
)


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
    )

    def __init__(self) -> None:
        self.n = 0
        #: numpy columns mirroring the packed arrays, in local id space;
        #: dtypes match the final tables so stamping is concatenation.
        self.row_path_counts = np.empty(0, np.int64)
        self.path_src_lid = np.empty(0, np.int64)
        self.path_src_rail = np.empty(0, bool)
        self.path_g = np.empty(0, np.float64)
        self.path_cond_counts = np.empty(0, np.int64)
        self.cond_gate_lid = np.empty(0, np.int64)
        self.cond_level = np.empty(0, np.int8)
        self.cond_internal = np.empty(0, bool)
        self.row_wave = np.empty(0, np.int64)
        #: (trigger lid, sorted position array) pairs, insertion order.
        self.affected: list[tuple[int, np.ndarray]] = []
        #: mid-pass expansion CSR: per-row counts + flat sorted
        #: later-positions.
        self.aff_later_counts = np.empty(0, np.int64)
        self.aff_later_flat = np.empty(0, np.int64)


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

    Build with :meth:`build`; share freely between
    :class:`~repro.switchsim.vector.VectorSwitchSimulator` instances of
    the *same* (unmutated) netlist.
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
        nid = self.net_ids

        conductance = {
            t.name: (1.0 if t.polarity == "nmos" else 0.4)
                    * t.w_um / t.effective_length(l_min_um)
            for t in flat.transistors
        }

        self._stamp_templates(flat, nid, conductance)

        # Incremental condition machinery: materialize each condition's
        # owning path, then group conditions by (gate net, section)
        # where section encodes internal/external x required level.
        # A net value change shifts the grouped paths' bad/unknown
        # counters by one scalar delta each -- O(fan-out) with no
        # per-condition value reads.
        n_paths = self.path_src.size
        ccounts = self.cond_ptr[1:] - self.cond_ptr[:-1]
        self.cond_path = np.repeat(np.arange(n_paths, dtype=np.int32),
                                   ccounts)
        if self.cond_gate.size:
            sec = (np.where(self.cond_internal, 0, 2)
                   + self.cond_level.astype(np.int64))
            # int32 keys: net ids and the 4 sections fit comfortably,
            # and the radix sort moves half the bytes.
            key = (self.cond_gate * 4 + sec).astype(np.int32)
            order = np.argsort(key, kind="stable")
            ks = key[order]
            ps = self.cond_path[order]
            cuts = np.flatnonzero(ks[1:] != ks[:-1]) + 1
            bounds = np.concatenate(([0], cuts, [ks.size]))
            grouped: dict[int, list] = {}
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                nid_, sec_ = divmod(int(ks[a]), 4)
                paths, mult = np.unique(ps[a:b], return_counts=True)
                entry = grouped.setdefault(nid_, [None] * 4)
                entry[sec_] = (paths, mult.astype(np.int32))

            def merge(x, y):
                # Internal/external path sets are disjoint (a path
                # belongs to exactly one CCC), so plain concatenation
                # keeps fancy-indexed += well-defined.
                if x is None:
                    return y
                if y is None:
                    return x
                return (np.concatenate((x[0], y[0])),
                        np.concatenate((x[1], y[1])))

            for nid_, (il0, il1, el0, el1) in grouped.items():
                self.net_cond_all[nid_] = (merge(il0, el0),
                                           merge(il1, el1))
                if il0 is not None or il1 is not None:
                    self.net_cond_int[nid_] = (il0, il1)

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

    @staticmethod
    def _compute_template(ccc: ChannelConnectedComponent,
                          sorted_nets: list[str], flat: FlatNetlist,
                          local_names: list[str],
                          conductance: dict[str, float]) -> _CCCTemplate:
        """Enumerate one CCC's packed segment in local id space.

        Runs one target-rooted sweep per source (vdd, gnd, each port)
        -- ~3 graph traversals per CCC instead of one per channel net
        -- then extracts every (net, source) pair's paths from the
        sweeps' parent-pointer forests with array ops.  Chains walk
        from arrival to root, which *is* source-to-target device order
        (module docs of :mod:`repro.recognition.conduction`), and a
        lexsort on forward rank sequences restores the per-pair
        enumeration order, so the packed segment is byte-identical to a
        per-pair enumeration of this CCC -- including ``path_g`` floats,
        accumulated in the same per-device sequence as the reference
        engine's series formula.
        """
        idx = {nm: i for i, nm in enumerate(local_names)}
        n = len(sorted_nets)
        max_paths = 10000
        tpl = _CCCTemplate()
        tpl.n = n
        sources = ["vdd", "gnd"] + sorted(
            nm for nm in ccc.channel_nets if flat.nets[nm].is_port)
        sweeps = {src: sweep_paths_to_target(ccc, src, max_paths)
                  for src in sources}
        g = switch_graph(ccc)
        gid_of = g["net_ids"]
        n_dev = len(ccc.transistors)
        # Per-device condition/conductance tables in local id space.
        dev_cond_lid = np.full(n_dev, 0, np.int64)
        dev_cond_level = np.zeros(n_dev, np.int8)
        dev_has_cond = np.zeros(n_dev, bool)
        dev_g = np.zeros(n_dev, np.float64)
        for di, t in enumerate(ccc.transistors):
            dev_g[di] = conductance[t.name]
            if not is_rail_name(t.gate):
                dev_cond_lid[di] = idx[t.gate]
                dev_cond_level[di] = 1 if t.polarity == "nmos" else 0
                dev_has_cond[di] = True

        row_path_counts: list[int] = []
        src_chunks: list[np.ndarray] = []
        rail_chunks: list[np.ndarray] = []
        g_chunks: list[np.ndarray] = []
        pc_chunks: list[np.ndarray] = []
        cg_chunks: list[np.ndarray] = []
        cl_chunks: list[np.ndarray] = []
        ci_chunks: list[np.ndarray] = []
        deps_of: list[set[int]] = []
        par_all = dev_all = rnk_all = dpt_all = None
        for p, net in enumerate(sorted_nets):
            deps = {p}
            count = 0
            net_gid = gid_of.get(net)
            for src in sources:
                if src == net:
                    continue
                ts = sweeps[src]
                if net_gid is None:
                    continue
                if net_gid in ts["overflow"]:
                    # Same raise, in the same (net, src) iteration
                    # order, as ``conduction_paths``.
                    raise RuntimeError(
                        f"conduction path enumeration between {net!r} and "
                        f"{src!r} exceeded {max_paths} paths"
                    )
                bucket = ts["buckets"].get(net_gid)
                if bucket is None or not bucket.size:
                    continue
                par_all, dev_all = ts["par"], ts["dev"]
                rnk_all, dpt_all = ts["rank"], ts["depth"]
                nb = bucket.size
                d = dpt_all[bucket].astype(np.int64)
                m = int(d.max())
                # Unroll each arrival's parent chain into (nb, m)
                # device/rank matrices; position k is the k-th device
                # in forward (source-to-target) order.
                K = np.zeros((nb, m), np.int32)
                D = np.zeros((nb, m), np.int32)
                cur = bucket.astype(np.int64)
                for k in range(m):
                    act = d > k
                    idxs = cur[act]
                    K[act, k] = rnk_all[idxs]
                    D[act, k] = dev_all[idxs]
                    cur[act] = par_all[idxs]
                # Restore per-pair enumeration order: lex order on the
                # forward rank sequence (primary key passed last).  No
                # key strictly prefixes another, so the zero padding of
                # short chains never decides a comparison.
                order = np.lexsort(tuple(K[:, j]
                                         for j in range(m - 1, -1, -1)))
                D = D[order]
                d = d[order]
                posmask = np.arange(m)[None, :] < d[:, None]
                # Series conductance with the reference accumulation
                # order: inv += 1/g device by device, ascending k.
                inv = np.zeros(nb, np.float64)
                bad = np.zeros(nb, bool)
                for k in range(m):
                    act = posmask[:, k]
                    gk = dev_g[D[act, k]]
                    bad[act] |= gk <= 0
                    contrib = np.zeros(gk.size, np.float64)
                    np.divide(1.0, gk, out=contrib, where=gk > 0)
                    inv[act] += contrib
                pg = np.empty(nb, np.float64)
                np.divide(1.0, inv, out=pg, where=inv != 0)
                pg[inv == 0] = np.inf
                pg[bad] = 0.0
                # Conditions: every non-rail-gated device on the path,
                # in forward order (row-major masked selection).
                Ds = np.where(posmask, D, 0)
                sel = posmask & dev_has_cond[Ds]
                cdevs = Ds[sel]
                cg = dev_cond_lid[cdevs]
                if src == "vdd":
                    src_lid, is_rail = -1, True
                elif src == "gnd":
                    src_lid, is_rail = -2, True
                else:
                    src_lid, is_rail = idx[src], False
                    deps.add(src_lid)
                src_chunks.append(np.full(nb, src_lid, np.int64))
                rail_chunks.append(np.full(nb, is_rail, bool))
                g_chunks.append(pg)
                pc_chunks.append(sel.sum(axis=1).astype(np.int64))
                cg_chunks.append(cg)
                cl_chunks.append(dev_cond_level[cdevs])
                ci_chunks.append(cg < n)
                deps.update(np.unique(cg).tolist())
                count += nb
            row_path_counts.append(count)
            deps_of.append(deps)

        def cat(chunks: list[np.ndarray], dtype) -> np.ndarray:
            return (np.concatenate(chunks) if chunks
                    else np.empty(0, dtype))

        tpl.row_path_counts = np.array(row_path_counts, np.int64)
        tpl.path_src_lid = cat(src_chunks, np.int64)
        tpl.path_src_rail = cat(rail_chunks, bool)
        tpl.path_g = cat(g_chunks, np.float64)
        tpl.path_cond_counts = cat(pc_chunks, np.int64)
        tpl.cond_gate_lid = cat(cg_chunks, np.int64)
        tpl.cond_level = cat(cl_chunks, np.int8)
        tpl.cond_internal = cat(ci_chunks, bool)

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

    def _stamp_templates(self, flat: FlatNetlist, nid: dict[str, int],
                         conductance: dict[str, float]) -> None:
        """Template-cached build: compute once per CCC shape, stamp per
        instance.

        Stamping substitutes global net ids for a template's local ids
        and offsets row positions by the instance's base row; every
        other decision is baked into the template, so the concatenated
        arrays equal per-instance enumeration byte for byte.
        """
        templates: dict = {}
        row_net_chunks: list[np.ndarray] = []
        row_ccc_chunks: list[np.ndarray] = []
        wave_chunks: list[np.ndarray] = []
        rp_chunks: list[np.ndarray] = []
        src_chunks: list[np.ndarray] = []
        rail_chunks: list[np.ndarray] = []
        g_chunks: list[np.ndarray] = []
        pc_chunks: list[np.ndarray] = []
        cg_chunks: list[np.ndarray] = []
        cl_chunks: list[np.ndarray] = []
        ci_chunks: list[np.ndarray] = []
        al_count_chunks: list[np.ndarray] = []
        al_flat_chunks: list[np.ndarray] = []
        vdd_id = nid["vdd"]
        gnd_id = nid["gnd"]
        base = 0
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
            n = tpl.n
            gmap = np.array([nid[nm] for nm in local_names], np.int64)
            row_net_chunks.append(gmap[:n])
            row_ccc_chunks.append(np.full(n, ccc.index, np.int64))
            wave_chunks.append(tpl.row_wave)
            rp_chunks.append(tpl.row_path_counts)
            lids = tpl.path_src_lid
            src_chunks.append(
                np.where(lids == -1, vdd_id,
                         np.where(lids == -2, gnd_id,
                                  gmap[np.maximum(lids, 0)])))
            rail_chunks.append(tpl.path_src_rail)
            g_chunks.append(tpl.path_g)
            pc_chunks.append(tpl.path_cond_counts)
            cg_chunks.append(gmap[tpl.cond_gate_lid])
            cl_chunks.append(tpl.cond_level)
            ci_chunks.append(tpl.cond_internal)
            self.affected_rows.append({
                local_names[lid]: base + arr for lid, arr in tpl.affected})
            al_count_chunks.append(tpl.aff_later_counts)
            al_flat_chunks.append(base + tpl.aff_later_flat)
            for gate in ccc.gate_nets():
                self.gate_readers.setdefault(gate, []).append(ccc.index)
            for net in ccc.channel_nets:
                self.net_cccs.setdefault(net, []).append(ccc.index)
                if flat.nets[net].is_port:
                    self.port_cccs.setdefault(net, []).append(ccc.index)
            base += n

        def cat(chunks: list[np.ndarray], dtype) -> np.ndarray:
            return (np.concatenate(chunks) if chunks
                    else np.empty(0, dtype))

        def ptr_of(counts: np.ndarray) -> np.ndarray:
            return np.concatenate((np.zeros(1, np.int64),
                                   np.cumsum(counts, dtype=np.int64)))

        self.row_net = cat(row_net_chunks, np.int64)
        self.n_rows = int(self.row_net.size)
        self.row_name = [self.net_names[i] for i in self.row_net.tolist()]
        self.row_ccc = cat(row_ccc_chunks, np.int64)
        self.row_wave = cat(wave_chunks, np.int64)
        self.path_ptr = ptr_of(cat(rp_chunks, np.int64))
        self.path_src = cat(src_chunks, np.int64)
        self.path_src_rail = cat(rail_chunks, bool)
        self.path_g = cat(g_chunks, np.float64)
        self.cond_ptr = ptr_of(cat(pc_chunks, np.int64))
        self.cond_gate = cat(cg_chunks, np.int64)
        self.cond_level = cat(cl_chunks, np.int8)
        self.cond_internal = cat(ci_chunks, bool)
        self.aff_later_ptr = ptr_of(cat(al_count_chunks, np.int64))
        self.aff_later_rows = cat(al_flat_chunks, np.int64)

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
