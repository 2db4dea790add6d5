"""Reference implementations the production fast paths must match.

Slow on purpose: each is the straightforward form of an algorithm that
production runs in a faster form, kept here so the property tests, the
differential tests and ``benchmarks/setup_report.py`` can demand
bit-identical results.

* :func:`enumerate_pair` -- the per-(source, target) depth-first walk
  that defines which conduction paths a pair has, and in which order.
  :func:`repro.recognition.conduction.conduction_paths` answers the
  same question from one target-rooted sweep per target, as a packed
  :class:`~repro.recognition.conduction.PathSet` that
  :func:`materialize` turns into the walk's :class:`ConductionPath`
  list.  Only the oracles and the tests build path objects.
* :func:`direct_tables` -- the packed switch tables built CCC instance
  by CCC instance from per-pair walks.
  :meth:`repro.switchsim.tables.PackedSwitchTables.build` stamps
  per-CCC-shape templates from sweeps instead, and must match it byte
  for byte (:func:`table_mismatches`).  :func:`condition_groups`
  derives the incremental gate-update maps from the conditions CSR
  with a plain loop, where the build groups each template's conditions
  once and stamps the groups per instance.
* :func:`reference_timing_graph` with :class:`OracleDelayCalculator`
  -- the STA graph built from materialized path lists, priced with one
  ``MosfetModel.on_resistance`` call per device of every path of every
  arc.  :func:`repro.timing.graph.build_timing_graph` prices each source
  pair once from the sweep records with per-shape resistance tables,
  and must produce float-for-float the same arcs.
* :class:`OracleBetaRatioCheck`, :class:`OracleEdgeRateCheck`,
  :class:`OracleWritabilityCheck` and :func:`reference_off_network_leakage`
  -- the checks filtering and pricing materialized paths
  (:func:`path_resistance` and friends), where production tests
  per-device facts and adds along the sweep records' parent chains.
* :func:`support`, :func:`truth_table`, :func:`conduction_function` and
  the other path-list queries below -- the per-path forms of the
  order-free questions :class:`repro.recognition.conduction.PathSet`
  answers from per-device facts along its walk.
* :class:`OracleHotCarrierCheck` -- the hot-carrier check testing every
  NMOS device against every pull-down path of its CCC, where
  :class:`repro.checks.hot_carrier.HotCarrierCheck` reads each device's
  shortest path from one pass over each output's ``PathSet``.
* :func:`reference_storage_nodes` -- latch finding with per-path gate
  sets, a per-SCC scan of every gate edge and a device-list search per
  pass writer, where :func:`repro.recognition.latches.find_storage_nodes`
  reads supports, labels nets by SCC and holds the writers themselves.
* :class:`ReferenceDesignerQueue` -- triage dedupe comparing each new
  item with every queued one, where the production queue keeps an
  identity index.
* :func:`reference_channel_route`, :func:`reference_parallel_runs` and
  :func:`reference_antenna_geometry` -- the router testing every
  interval of every track, coupling runs over every pair of trunks, and
  antenna areas scanning every rectangle per net and layer.
* :class:`ExhaustiveSwitchSimulator` -- the scalar switch-level engine
  re-solving every channel net of every CCC on each settle, where
  :class:`repro.switchsim.engine.SwitchSimulator` re-solves only the
  nets whose fan-in changed.
* :func:`reference_elmore_delay` -- one Elmore query re-walking every
  downstream subtree on the root path, where
  :class:`repro.extraction.rctree.RCTree` serves every node from two
  cached linear passes.
* :func:`reference_close_timing` -- the sizing loop re-annotating both
  corners and re-running the whole timing pipeline each iteration,
  where :func:`repro.timing.sizing.close_timing` refreshes loads,
  re-prices the touched arcs and re-propagates the dirty cones.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.checks.base import CheckContext, Finding, Severity
from repro.checks.beta import BetaRatioCheck
from repro.checks.edge_rate import EdgeRateCheck
from repro.checks.helpers import device_map, pull_paths
from repro.checks.hot_carrier import HotCarrierCheck
from repro.checks.writability import WritabilityCheck
from repro.core.triage import DesignerQueue, QueueItem
from repro.layout.antenna_geom import AntennaGeometry
from repro.layout.geometry import Rect
from repro.layout.router import RouteSegment
from repro.netlist.flatten import FlatNetlist
from repro.netlist.nets import is_rail_name, is_supply_name
from repro.recognition.ccc import ChannelConnectedComponent, extract_cccs
from repro.recognition.conduction import PathSet, conduction_paths
from repro.recognition.families import CCCClassification, CircuitFamily
from repro.recognition.gates import drive_pull_paths
from repro.recognition.latches import StorageNode, _strongly_connected
from repro.recognition.signature import topology_signature
from repro.extraction.annotate import annotate
from repro.extraction.rctree import RCTree
from repro.extraction.wireload import WireloadModel
from repro.process.corners import Corner
from repro.switchsim.engine import SwitchSimulator
from repro.switchsim.tables import csr_gather
from repro.timing.delay import ArcDelayCalculator
from repro.timing.driver import TimingRun, analyze_annotated
from repro.timing.graph import DelayArc, TimingGraph, _break_cycles
from repro.timing.sizing import ClosureResult, SizingIteration, size_path

#: Every numpy column of the packed tables.
TABLE_ARRAYS = (
    "row_net", "row_ccc", "row_wave", "path_ptr", "path_src",
    "path_src_rail", "path_g", "cond_ptr", "cond_gate", "cond_level",
    "cond_internal", "aff_later_ptr", "aff_later_rows",
)


@dataclass(frozen=True)
class ConductionPath:
    """One simple channel path between two nets.

    ``conditions`` is a tuple of ``(gate_net, required_level)`` pairs:
    the path conducts when every gate net is at its required level
    (1 for NMOS, 0 for PMOS).
    """

    devices: tuple[str, ...]
    conditions: tuple[tuple[str, bool], ...]

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


def enumerate_pair(
    ccc: ChannelConnectedComponent,
    source: str,
    target: str,
    max_paths: int = 10000,
) -> list[ConductionPath]:
    """All simple channel paths from ``source`` to ``target``, one pair
    at a time.

    A LIFO walk from ``source`` pushing children in adjacency order:
    rails other than the source terminate paths, no net is revisited
    (except ``target`` when it equals ``source``, which admits loop
    paths), and contradictory paths are dropped.  Raises the same
    ``RuntimeError`` as ``conduction_paths`` past ``max_paths``.
    Touches no cache, so a comparison against ``conduction_paths``
    never reads back its own answer.
    """
    adj: dict[str, list] = {}
    for t in ccc.transistors:
        d, s = t.channel_terminals()
        adj.setdefault(d, []).append((t, s))
        adj.setdefault(s, []).append((t, d))

    paths: list[ConductionPath] = []
    stack = [(source, (), (), frozenset({source}))]
    while stack:
        net, devs, conds, visited = stack.pop()
        if net == target and devs:
            path = ConductionPath(devices=devs, conditions=conds)
            if not path.is_contradictory():
                paths.append(path)
                if len(paths) > max_paths:
                    raise RuntimeError(
                        f"conduction path enumeration between {source!r} and "
                        f"{target!r} exceeded {max_paths} paths"
                    )
            continue
        if net != source and is_rail_name(net):
            # Rails terminate paths: conduction through the opposite rail
            # is a crowbar condition, not a logic path.
            continue
        for t, other in adj.get(net, []):
            if t.name in devs:
                continue
            if other in visited and other != target:
                continue
            level = t.polarity == "nmos"
            if is_rail_name(t.gate):
                # Rail-gated device: a constant switch.  An NMOS gated by
                # vdd (or PMOS by gnd) is always on and adds no condition;
                # the opposite polarity is permanently off.
                if is_supply_name(t.gate) != level:
                    continue
                new_conds = conds
            else:
                new_conds = conds + ((t.gate, level),)
            stack.append((other, devs + (t.name,), new_conds,
                          visited | {other}))
    return paths


def materialize(pathset: PathSet) -> tuple[ConductionPath, ...]:
    """A packed pair's paths as objects, in the per-pair walk's order.

    Parent chains run from the arrival back to the root, i.e. already
    in source-to-target order; each chain yields its devices,
    conditions, and forward rank key in one walk, and sorting by key
    restores the per-pair enumeration order (see the
    :mod:`repro.recognition.conduction` docstring).
    """
    g, ts = pathset._g, pathset._ts
    par, dev, rnk = ts["par"], ts["dev"], ts["rank"]
    dev_names = g["dev_names"]
    dev_gate, dev_level = g["dev_gate"], g["dev_level"]
    gate_names = g["gate_names"]
    keyed: list[tuple[tuple[int, ...], ConductionPath]] = []
    for node in pathset._nodes.tolist():
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
    return tuple(p for _, p in keyed)


def direct_tables(flat: FlatNetlist, l_min_um: float = 0.35) -> dict:
    """The packed switch-table arrays of ``flat``, built directly.

    Extracts fresh CCCs and enumerates every (channel net, source) pair
    with :func:`enumerate_pair` -- no sweeps, no templates -- packing
    the result in the layout :mod:`repro.switchsim.tables` documents.
    Returns every array named in :data:`TABLE_ARRAYS` plus
    ``row_name`` and ``affected_rows``.
    """
    names = sorted(flat.nets)
    for rail in ("vdd", "gnd"):
        if rail not in flat.nets:
            names.append(rail)
    nid = {n: i for i, n in enumerate(names)}
    conductance = {
        t.name: (1.0 if t.polarity == "nmos" else 0.4)
                * t.w_um / t.effective_length(l_min_um)
        for t in flat.transistors
    }

    def path_conductance(path: ConductionPath) -> float:
        # The series formula, device by device, from 0.0.
        inv_total = 0.0
        for dev in path.devices:
            g = conductance[dev]
            if g <= 0:
                return 0.0
            inv_total += 1.0 / g
        return 1.0 / inv_total if inv_total else float("inf")

    row_net: list[int] = []
    row_ccc: list[int] = []
    row_wave: list[int] = []
    path_ptr: list[int] = [0]
    path_src: list[int] = []
    path_src_rail: list[bool] = []
    path_g: list[float] = []
    cond_ptr: list[int] = [0]
    cond_gate: list[int] = []
    cond_level: list[int] = []
    cond_internal: list[bool] = []
    aff_later: list[list[int]] = []
    affected_rows: list[dict[str, np.ndarray]] = []

    for ccc in extract_cccs(flat):
        base = len(row_net)
        sorted_nets = sorted(ccc.channel_nets)
        pos = {net: i for i, net in enumerate(sorted_nets)}
        sources = ["vdd", "gnd"] + sorted(
            n for n in ccc.channel_nets if flat.nets[n].is_port)
        deps_of: dict[str, set[str]] = {}
        for net in sorted_nets:
            deps: set[str] = {net}
            for src in sources:
                if src == net:
                    continue
                paths = enumerate_pair(ccc, net, src)
                if not paths:
                    continue
                if src not in ("vdd", "gnd"):
                    deps.add(src)
                for p in paths:
                    path_src.append(nid[src])
                    path_src_rail.append(src in ("vdd", "gnd"))
                    path_g.append(path_conductance(p))
                    for gate, level in p.conditions:
                        cond_gate.append(nid[gate])
                        cond_level.append(1 if level else 0)
                        cond_internal.append(gate in ccc.channel_nets)
                        deps.add(gate)
                    cond_ptr.append(len(cond_gate))
            path_ptr.append(len(path_src))
            deps_of[net] = deps
            row_net.append(nid[net])
            row_ccc.append(ccc.index)

        # Static wave levels: wave(net) > wave(d) for deps d at an
        # earlier position, wave(net) >= wave(r) for earlier readers r.
        readers_of: dict[str, list[str]] = {}
        for net in sorted_nets:
            for d in deps_of[net]:
                if d in pos and pos[d] > pos[net]:
                    readers_of.setdefault(d, []).append(net)
        wave: dict[str, int] = {}
        for net in sorted_nets:
            w = 0
            for d in deps_of[net]:
                if d in pos and pos[d] < pos[net]:
                    w = max(w, wave[d] + 1)
            for r in readers_of.get(net, ()):
                w = max(w, wave[r])
            wave[net] = w
            row_wave.append(w)

        # Dirty propagation: trigger -> rows, and per-row expansion
        # restricted to later positions.
        affected: dict[str, set[str]] = {}
        for net in sorted_nets:
            for trigger in deps_of[net]:
                affected.setdefault(trigger, set()).add(net)
        affected_rows.append({
            trigger: np.array(sorted(base + pos[m] for m in nets_),
                              dtype=np.int64)
            for trigger, nets_ in affected.items()
        })
        for net in sorted_nets:
            later = affected.get(net, ())
            aff_later.append(sorted(
                base + pos[m] for m in later if pos[m] > pos[net]))

    aff_ptr = [0]
    aff_flat: list[int] = []
    for targets in aff_later:
        aff_flat.extend(targets)
        aff_ptr.append(len(aff_flat))
    return {
        "row_net": np.array(row_net, np.int64),
        "row_ccc": np.array(row_ccc, np.int64),
        "row_wave": np.array(row_wave, np.int64),
        "path_ptr": np.array(path_ptr, np.int64),
        "path_src": np.array(path_src, np.int64),
        "path_src_rail": np.array(path_src_rail, bool),
        "path_g": np.array(path_g, np.float64),
        "cond_ptr": np.array(cond_ptr, np.int64),
        "cond_gate": np.array(cond_gate, np.int64),
        "cond_level": np.array(cond_level, np.int8),
        "cond_internal": np.array(cond_internal, bool),
        "aff_later_ptr": np.array(aff_ptr, np.int64),
        "aff_later_rows": np.array(aff_flat, np.int64),
        "row_name": [names[i] for i in row_net],
        "affected_rows": affected_rows,
    }


def stamped_tables(tables) -> dict:
    """The path and condition arrays of ``tables`` (a built
    :class:`~repro.switchsim.tables.PackedSwitchTables`) after stamping
    every CCC, read row by row into the CSR layout of
    :func:`direct_tables` -- ``path_ptr`` and ``cond_ptr`` rebuilt from
    the per-row path counts -- whatever order the CCCs were stamped in.
    """
    tables.stamp(range(len(tables.cccs)))
    counts = tables.row_path_count
    paths = csr_gather(tables.row_path_start, counts)
    c0 = tables.cond_ptr[paths]
    nc = tables.cond_ptr[paths + 1] - c0
    conds = csr_gather(c0, nc)
    out = {
        "path_ptr": np.r_[0, np.cumsum(counts)].astype(np.int64),
        "cond_ptr": np.r_[0, np.cumsum(nc)].astype(np.int64),
    }
    for name in ("path_src", "path_src_rail", "path_g"):
        out[name] = getattr(tables, name)[paths]
    for name in ("cond_gate", "cond_level", "cond_internal"):
        out[name] = getattr(tables, name)[conds]
    return out


def table_mismatches(tables, reference: dict) -> list[str]:
    """Names of the packed arrays in which ``tables`` (a built
    :class:`~repro.switchsim.tables.PackedSwitchTables`) differs from
    ``reference`` (:func:`direct_tables`) in dtype, shape or bytes;
    empty when they are identical.  The path and condition arrays are
    compared after stamping every CCC (:func:`stamped_tables`), and the
    exact counts the build reports without stamping must match them."""
    bad = []
    stamped = stamped_tables(tables)
    for name in TABLE_ARRAYS:
        x = stamped[name] if name in stamped else getattr(tables, name)
        y = reference[name]
        if (x.dtype != y.dtype or x.shape != y.shape
                or x.tobytes() != y.tobytes()):
            bad.append(name)
    if tables.row_name != reference["row_name"]:
        bad.append("row_name")
    ours, theirs = tables.affected_rows, reference["affected_rows"]
    if len(ours) != len(theirs) or any(
            set(a) != set(b) or any(a[k].tolist() != b[k].tolist()
                                    for k in a)
            for a, b in zip(ours, theirs)):
        bad.append("affected_rows")
    counts = tables.counters()
    if (counts["packed_paths"] != reference["path_src"].size
            or counts["packed_conditions"] != reference["cond_gate"].size):
        bad.append("counters")
    return bad


class OracleDelayCalculator(ArcDelayCalculator):
    """Arc pricing from path lists, without the shape tables.

    Every path of every arc is priced afresh, and every device on it
    costs one model evaluation.  Only the pricing differs from the
    production calculator; loads and derates are inherited.  Its
    :meth:`drive_bounds` takes a list of :class:`ConductionPath`, the
    form :func:`reference_timing_graph` hands it.
    """

    def path_resistance(self, path: ConductionPath, design) -> float:
        tech = design.technology
        vdd = tech.vdd_at(design.corner)
        values = []
        for name in path.devices:
            device = self._device_fast[name]
            model = tech.mosfet(device.polarity, design.corner)
            values.append(model.on_resistance(
                vdd, device.w_um, device.effective_length(tech.l_min_um)
            ))
        return ascending_sum(values)

    def drive_bounds(self, paths_through_input, resistances=None):
        if not paths_through_input:
            raise ValueError("arc needs at least one conduction path")
        r_min = min(self.path_resistance(path, self.fast)
                    for path in paths_through_input)
        r_max = max(self.path_resistance(path, self.slow)
                    for path in paths_through_input)
        return r_min, r_max


def ascending_sum(values: Iterable[float]) -> float:
    """The STA path resistance: ``values`` added left to right, smallest
    first -- never ``sum()``, which compensates its rounding from
    Python 3.12 on."""
    total = 0.0
    for value in sorted(values):
        total += value
    return total


def selected_paths(selection) -> tuple[ConductionPath, ...]:
    """An arc's retained selection, materialized: for each ``(pair,
    rows)`` in order, the pair's paths at ``rows`` (all when None) in
    per-pair order."""
    out: list[ConductionPath] = []
    for pair, rows in selection:
        if rows is not None:
            pair = PathSet(pair._g, pair._ts, pair._nodes[rows])
        out.extend(materialize(pair))
    return tuple(out)


def path_at(pair: PathSet, row: int) -> ConductionPath:
    """The path at position ``row`` of ``pair``'s node order, the order
    of its per-path walks (``sums``, ``rows_by_gate``)."""
    (path,) = selected_paths([(pair, [row])])
    return path


def reference_timing_graph(design, calculator: OracleDelayCalculator,
                           arc_cache=None) -> TimingGraph:
    """The timing graph built from materialized path lists.

    The builder as it was before arcs priced packed selections: every
    (output, source) pair is materialized (:func:`materialize`), each arc
    collects the :class:`ConductionPath` objects carrying its input,
    and ``calculator.drive_bounds`` prices the list.  Arc order, kinds,
    the self-feedback skip, the arc-cache keys and cycle breaking are
    :func:`repro.timing.graph.build_timing_graph`'s.
    """
    graph = TimingGraph()
    flat_nets = design.flat.nets
    env_key = calculator.environment_key() if arc_cache is not None else None

    for classification in design.classifications:
        ccc = classification.ccc
        sig = None
        geometry = None
        if arc_cache is not None:
            sig = topology_signature(ccc)
            by_name = {t.name: t for t in ccc.transistors}
            geometry = tuple(
                (by_name[n].w_um, by_name[n].l_um, by_name[n].l_add_um)
                for n in sig.devices
            )

        def price(src, dst, kind, paths, sig=sig, geometry=geometry):
            if arc_cache is not None and src in sig.labels and dst in sig.labels:
                key = (sig.key, geometry, sig.labels[src], sig.labels[dst],
                       kind, env_key)
                r_min, r_max = arc_cache.drive_bounds(
                    key, lambda: calculator.drive_bounds(paths))
            else:
                r_min, r_max = calculator.drive_bounds(paths)
            delay = calculator.delay_from_drive(r_min, r_max, dst)
            graph.add(DelayArc(src=src, dst=dst, d_min=delay.d_min,
                               d_max=delay.d_max, kind=kind,
                               paths=tuple(paths)))

        sources = [rail for rail in ("vdd", "gnd") if ccc.touches_rail(rail)]
        port_sources = sorted(
            n for n in ccc.channel_nets
            if n in flat_nets and flat_nets[n].is_port
        )
        for out in sorted(ccc.output_nets or ccc.channel_nets):
            dyn = classification.dynamic_nodes.get(out)
            if dyn is not None:
                down = materialize(conduction_paths(ccc, out, "gnd"))
                up = materialize(conduction_paths(ccc, out, "vdd"))
                pre = [p for p in up
                       if set(p.devices) <= set(dyn.precharge_devices)]
                if pre and dyn.clock:
                    price(dyn.clock, out, "precharge", pre)
                for inp in sorted(dyn.eval_inputs):
                    through = [p for p in down if inp in p.gates()]
                    if through:
                        price(inp, out, "evaluate", through)
                foot = [p for p in down if dyn.clock in p.gates()]
                if foot and dyn.clock:
                    price(dyn.clock, out, "evaluate", foot)
                continue
            arc_paths: dict[str, list] = {}
            for src in sources + [p for p in port_sources if p != out]:
                paths = materialize(conduction_paths(ccc, out, src))
                if not paths:
                    continue
                for path in paths:
                    for gate_net in path.gates():
                        arc_paths.setdefault(gate_net, []).append(path)
                if src not in ("vdd", "gnd"):
                    price(src, out, "pass", paths)
            for gate_net, paths in sorted(arc_paths.items()):
                if gate_net == out:
                    continue
                kind = "pass" if classification.family in (
                    CircuitFamily.PASS_NETWORK, CircuitFamily.TRANSMISSION_GATE
                ) else "gate"
                price(gate_net, out, kind, paths)

    _break_cycles(graph)
    return graph


def arc_rows(graph) -> list[tuple]:
    """``(src, dst, kind, d_min, d_max)`` of every arc, in graph order."""
    return [(a.src, a.dst, a.kind, a.d_min, a.d_max) for a in graph.arcs]


# -- path-list queries ---------------------------------------------------------


def conduction_function(
    paths: Iterable[ConductionPath],
    assignment: Mapping[str, bool],
) -> bool:
    """Evaluate OR-over-paths conduction under one input assignment.

    A path conducts when every gate net on it is at its required level;
    a gate net missing from the assignment makes it non-conducting
    (conservative: unknown is off for conduction purposes).
    """
    return any(all(gate in assignment and assignment[gate] == level
                   for gate, level in p.conditions)
               for p in paths)


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
    """Conduction truth table as a bitmask, one assignment at a time.

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


def devices(paths: Iterable[ConductionPath]) -> set[str]:
    """All devices on any path."""
    return {d for p in paths for d in p.devices}


def avoiding(paths: Iterable[ConductionPath], ccc: ChannelConnectedComponent,
             nets: set[str]) -> list[ConductionPath]:
    """The paths none of whose devices has a channel terminal on ``nets``."""
    by_name = {t.name: t for t in ccc.transistors}
    out = []
    for p in paths:
        touched: set[str] = set()
        for name in p.devices:
            touched.update(by_name[name].channel_terminals())
        if not touched & nets:
            out.append(p)
    return out


def of_polarity(paths: Iterable[ConductionPath], ccc: ChannelConnectedComponent,
                polarity: str) -> list[ConductionPath]:
    """The paths made of ``polarity`` devices only."""
    names = {t.name for t in ccc.transistors if t.polarity == polarity}
    return [p for p in paths if not set(p.devices) - names]


def gated_within(paths: Iterable[ConductionPath],
                 nets: set[str]) -> list[ConductionPath]:
    """The paths with at least one condition, every one on ``nets``."""
    return [p for p in paths if p.gates() and p.gates() <= nets]


def footed_by(paths: Iterable[ConductionPath], gate: str) -> bool:
    """Some path requires ``gate`` high plus at least one more condition."""
    for p in paths:
        conds = set(p.conditions)
        if (gate, True) in conds and conds - {(gate, True)}:
            return True
    return False


def device_depths(paths: Iterable[ConductionPath]) -> dict[str, int]:
    """Length of the shortest path through each device on a path."""
    out: dict[str, int] = {}
    for p in paths:
        for name in p.devices:
            out[name] = min(out.get(name, len(p.devices)), len(p.devices))
    return out


# -- checks and latch finding -------------------------------------------------


def path_resistance(path: ConductionPath, annotated, devices) -> float:
    """On-resistance of one fully conducting path at the context corner,
    its devices' resistances added in path order."""
    total = 0.0
    for name in path.devices:
        total += annotated.on_resistance(devices[name])
    return total


def best_resistance(paths: list[ConductionPath], annotated, devices) -> float:
    """Resistance of the strongest (least resistive) path."""
    return min(path_resistance(p, annotated, devices) for p in paths)


def worst_resistance(paths: list[ConductionPath], annotated, devices) -> float:
    """Resistance of the weakest (most resistive) path."""
    return max(path_resistance(p, annotated, devices) for p in paths)


def reference_off_network_leakage(ccc: ChannelConnectedComponent, net: str,
                                  annotated, devices) -> float:
    """:func:`repro.checks.helpers.off_network_leakage` over the
    materialized pull-down paths: the first device of each distinct path,
    in path order."""
    tech = annotated.technology
    vdd = tech.vdd_at(annotated.corner)
    total = 0.0
    seen_first: set[str] = set()
    for path in materialize(conduction_paths(ccc, net, "gnd")):
        first = path.devices[0]
        if first in seen_first:
            continue
        seen_first.add(first)
        t = devices[first]
        model = tech.mosfet(t.polarity, annotated.corner)
        total += model.leakage(vdd, t.w_um, t.effective_length(tech.l_min_um))
    return total


class OracleBetaRatioCheck(BetaRatioCheck):
    """The beta-ratio check pricing materialized path lists."""

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        devices = device_map(ctx.typical)
        settings = ctx.settings
        for classification in ctx.design.classifications:
            for out in classification.gates:
                down, up = pull_paths(classification.ccc, out)
                if not down or not up:
                    continue
                r_down = best_resistance(materialize(down), ctx.typical,
                                         devices)
                r_up = best_resistance(materialize(up), ctx.typical, devices)
                if r_up <= 0 or r_down <= 0:
                    continue
                ratio = (r_down / r_up)
                deviation = max(ratio, 1.0 / ratio)
                if deviation >= settings.beta_violation_band:
                    severity = Severity.VIOLATION
                    message = (f"pull networks differ by {deviation:.1f}x; "
                               f"switching threshold collapsed toward a rail")
                elif deviation >= settings.beta_filter_band:
                    severity = Severity.FILTERED
                    message = (f"{deviation:.1f}x skewed gate; confirm the "
                               f"skew is intentional")
                else:
                    severity = Severity.PASS
                    message = "pull networks balanced"
                findings.append(self._finding(
                    out, severity, message,
                    deviation=deviation, r_up=r_up, r_down=r_down,
                ))
        return findings


class OracleEdgeRateCheck(EdgeRateCheck):
    """The edge-rate check filtering and pricing materialized paths."""

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        devices = device_map(ctx.typical)
        settings = ctx.settings
        storage_nets = {n.net for n in ctx.design.storage}
        for classification in ctx.design.classifications:
            ccc = classification.ccc
            outputs = set(classification.gates) | set(classification.dynamic_nodes)
            for out in sorted(outputs):
                if out in storage_nets:
                    continue
                down, up = (materialize(s) for s in drive_pull_paths(ccc, out))
                dyn = classification.dynamic_nodes.get(out)
                if dyn is not None and dyn.keeper_devices:
                    keepers = set(dyn.keeper_devices)
                    down = [p for p in down if not set(p.devices) & keepers]
                    up = [p for p in up if not set(p.devices) & keepers]
                if not down and not up:
                    continue
                resistances = []
                if down:
                    resistances.append(worst_resistance(down, ctx.typical, devices))
                if up:
                    resistances.append(worst_resistance(up, ctx.typical, devices))
                r_worst = max(resistances)
                c_load = ctx.typical.load(out).total_max()
                edge = 2.2 * r_worst * c_load
                is_clock = out in ctx.design.clocks
                limit = (settings.clock_edge_limit_s if is_clock
                         else settings.signal_edge_limit_s)
                if edge > limit:
                    severity = Severity.VIOLATION
                    message = (f"{'clock' if is_clock else 'signal'} edge "
                               f"{edge * 1e12:.0f} ps exceeds "
                               f"{limit * 1e12:.0f} ps limit")
                elif edge > 0.7 * limit:
                    severity = Severity.FILTERED
                    message = f"edge {edge * 1e12:.0f} ps near the limit"
                else:
                    severity = Severity.PASS
                    message = "edge rate healthy"
                findings.append(self._finding(out, severity, message,
                                              edge_s=edge, limit_s=limit))
        return findings


class OracleWritabilityCheck(WritabilityCheck):
    """The writability check testing each materialized path."""

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        devices = device_map(ctx.typical)
        settings = ctx.settings
        cccs_by_net = {}
        for classification in ctx.design.classifications:
            for net in classification.ccc.channel_nets:
                cccs_by_net[net] = classification.ccc
        flat_nets = ctx.typical.flat.nets

        for node in ctx.design.storage:
            if not node.static or not node.write_devices:
                continue
            ccc = cccs_by_net.get(node.net)
            if ccc is None:
                continue
            write_set = set(node.write_devices)
            partner_set = {node.net}
            if node.partner:
                partner_set.add(node.partner)
            down = materialize(conduction_paths(ccc, node.net, "gnd"))
            up = materialize(conduction_paths(ccc, node.net, "vdd"))
            port_paths = [
                p for other in sorted(ccc.channel_nets)
                if other != node.net and other in flat_nets
                and flat_nets[other].is_port
                for p in materialize(conduction_paths(ccc, node.net, other))
            ]

            def is_feedback(path) -> bool:
                if path.gates() & partner_set:
                    return True
                return node.partner is None and not (set(path.devices) & write_set)

            feedback_down = [p for p in down if is_feedback(p)]
            feedback_up = [p for p in up if is_feedback(p)]
            write_paths = [
                p for p in (*down, *up, *port_paths)
                if (set(p.devices) & write_set) and not is_feedback(p)
            ]
            if (not feedback_down and not feedback_up) or not write_paths:
                continue

            def side_conductance(paths) -> float:
                if not paths:
                    return 0.0
                return max(1.0 / path_resistance(p, ctx.typical, devices)
                           for p in paths)

            g_down = side_conductance(feedback_down)
            g_up = side_conductance(feedback_up)
            g_feedback = min(g for g in (g_down, g_up) if g > 0)
            g_write = max(1.0 / path_resistance(p, ctx.typical, devices)
                          for p in write_paths)
            ratio = g_write / g_feedback if g_feedback > 0 else float("inf")
            if ratio < settings.write_ratio_min:
                severity = Severity.VIOLATION
                message = (f"write path only {ratio:.2f}x the feedback; the "
                           f"cell may not flip across corners")
            elif ratio < settings.write_ratio_good:
                severity = Severity.FILTERED
                message = f"write ratio {ratio:.2f}x is workable but thin"
            else:
                severity = Severity.PASS
                message = f"write overpowers feedback ({ratio:.1f}x)"
            findings.append(self._finding(
                node.net, severity, message, write_ratio=ratio,
            ))
        return findings


class OracleHotCarrierCheck(HotCarrierCheck):
    """The hot-carrier check with the device-against-every-path loop."""

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        tech = ctx.technology
        limit = tech.hci_max_vds_v
        if limit is None:
            return findings
        vdd_max = tech.vdd_at(ctx.fast.corner)
        for classification in ctx.design.classifications:
            ccc = classification.ccc
            down_paths_by_output = {
                out: materialize(conduction_paths(ccc, out, "gnd"))
                for out in (ccc.output_nets or ccc.channel_nets)
            }
            for t in ccc.nmos():
                # Stack depth: the shortest path through this device.
                depth = None
                for paths in down_paths_by_output.values():
                    for p in paths:
                        if t.name in p.devices:
                            d = len(p.devices)
                            depth = d if depth is None else min(depth, d)
                if depth is None:
                    continue
                vds_worst = vdd_max / depth
                if vds_worst > limit:
                    findings.append(self._finding(
                        t.name, Severity.VIOLATION,
                        f"worst Vds {vds_worst:.2f} V above the HCI limit "
                        f"{limit:.2f} V; lengthen or stack the device",
                        vds_v=vds_worst,
                    ))
                elif vds_worst > 0.9 * limit:
                    findings.append(self._finding(
                        t.name, Severity.FILTERED,
                        f"worst Vds {vds_worst:.2f} V within 10% of the HCI "
                        f"limit",
                        vds_v=vds_worst,
                    ))
                else:
                    findings.append(self._finding(
                        t.name, Severity.PASS, "HCI stress acceptable",
                        vds_v=vds_worst,
                    ))
        return findings


def reference_storage_nodes(
    flat: FlatNetlist,
    classified: list[CCCClassification],
) -> list[StorageNode]:
    """State elements found the way the latch finder first did it.

    Cross-coupling is read from per-path gate sets of
    :func:`enumerate_pair` paths, feedback from testing every gate edge
    against every strongly connected component, and each pass writer
    by searching its CCC's device-name list.
    """
    outputs: dict[str, tuple] = {}
    for c in classified:
        ccc = c.ccc
        if not (ccc.touches_rail("vdd") and ccc.touches_rail("gnd")):
            continue
        for out in ccc.output_nets:
            down = enumerate_pair(ccc, out, "gnd")
            up = enumerate_pair(ccc, out, "vdd")
            if not down or not up:
                continue
            outputs[out] = (c, [frozenset(p.gates()) for p in down],
                            support(up) | support(down))

    nodes: list[StorageNode] = []
    claimed: set[str] = set()
    for x in sorted(outputs):
        if x in claimed:
            continue
        ix = outputs[x]
        for y in sorted(ix[2]):
            if y == x or y not in outputs or y in claimed:
                continue
            iy = outputs[y]
            if x not in iy[2]:
                continue
            if not (any(y in gates for gates in ix[1])
                    and any(x in gates for gates in iy[1])):
                continue
            for net, partner, oinfo in ((x, y, ix), (y, x, iy)):
                ccc = oinfo[0].ccc
                writes = [
                    t.name for t in ccc.transistors
                    if net in t.channel_terminals()
                    and "vdd" not in t.channel_terminals()
                    and "gnd" not in t.channel_terminals()
                ]
                enables = {t.gate for t in ccc.transistors if t.name in writes}
                nodes.append(StorageNode(
                    net=net, static=True, kind="cross_coupled",
                    write_devices=writes, partner=partner, enables=enables,
                ))
                claimed.add(net)
            break

    pass_writers: dict[str, list[tuple[CCCClassification, str]]] = {}
    strong_drivers: set[str] = set()
    for c in classified:
        if c.family in (CircuitFamily.PASS_NETWORK, CircuitFamily.TRANSMISSION_GATE):
            for t in c.ccc.transistors:
                for term in t.channel_terminals():
                    pass_writers.setdefault(term, []).append((c, t.name))
        else:
            for out in c.ccc.output_nets:
                strong_drivers.add(out)

    adj: dict[str, set[str]] = {}
    gate_edges: set[tuple[str, str]] = set()
    for c in classified:
        for out in c.ccc.output_nets:
            for inp in c.ccc.gate_nets():
                if inp not in ("vdd", "gnd"):
                    adj.setdefault(inp, set()).add(out)
                    adj.setdefault(out, set())
                    gate_edges.add((inp, out))
    for net, writers in pass_writers.items():
        for c, dev in writers:
            names = [x.name for x in c.ccc.transistors]
            t = c.ccc.transistors[names.index(dev)]
            other = t.other_channel_terminal(net)
            if other not in ("vdd", "gnd") and other != net:
                adj.setdefault(other, set()).add(net)
                adj.setdefault(net, set()).add(other)

    cyclic_nets: set[str] = set()
    for scc in _strongly_connected(adj):
        if len(scc) > 1 and any(u in scc and v in scc for u, v in gate_edges):
            cyclic_nets |= scc

    gate_load_nets = {t.gate for t in flat.transistors}
    for net in sorted(pass_writers):
        if net in claimed or net in strong_drivers:
            continue
        flat_net = flat.nets.get(net)
        if flat_net is not None and (flat_net.is_rail or flat_net.is_port):
            continue
        if net not in gate_load_nets:
            continue
        writers = pass_writers[net]
        devices_ = [dev for _c, dev in writers]
        enables = set()
        for c, dev in writers:
            names = [x.name for x in c.ccc.transistors]
            enables.add(c.ccc.transistors[names.index(dev)].gate)
        nodes.append(StorageNode(
            net=net,
            static=net in cyclic_nets,
            kind="pass_written",
            write_devices=sorted(set(devices_)),
            enables=enables,
        ))
        claimed.add(net)
    return nodes


# -- triage and layout ----------------------------------------------------------


class ReferenceDesignerQueue(DesignerQueue):
    """The triage queue comparing each new item with every queued one."""

    def _absorb(self, item: QueueItem) -> None:
        for existing in self.items:
            if existing.identity() == item.identity():
                existing.count += item.count
                return
        self.items.append(item)


def reference_channel_route(pins, channel_y0, channel_y1, wire_width=0.5,
                            track_pitch=1.5) -> list[RouteSegment]:
    """:func:`repro.layout.router.channel_route` testing each span
    against every interval on every track."""
    if channel_y1 <= channel_y0:
        raise ValueError("channel has non-positive height")
    spans = []
    for net, locations in pins.items():
        if not locations:
            continue
        xs = [x for x, _y in locations]
        spans.append((min(xs), max(xs), net))
    spans.sort()
    tracks: list[list[tuple[float, float]]] = []
    assignment: dict[str, int] = {}
    for x_min, x_max, net in spans:
        for idx, occupied in enumerate(tracks):
            if all(x_max + wire_width < lo or hi + wire_width < x_min
                   for lo, hi in occupied):
                occupied.append((x_min, x_max))
                assignment[net] = idx
                break
        else:
            tracks.append([(x_min, x_max)])
            assignment[net] = len(tracks) - 1
    if len(tracks) * track_pitch > (channel_y1 - channel_y0):
        raise ValueError(f"channel cannot fit {len(tracks)} tracks")
    segments = []
    for x_min, x_max, net in spans:
        track = assignment[net]
        y = channel_y0 + track_pitch * (track + 0.5)
        segments.append(RouteSegment(
            net=net, kind="trunk", track=track,
            rect=Rect("metal1", x_min - wire_width / 2, y - wire_width / 2,
                      x_max + wire_width / 2, y + wire_width / 2, net=net)))
        for px, py in pins[net]:
            y_lo, y_hi = sorted((y, py))
            segments.append(RouteSegment(
                net=net, kind="branch", track=track,
                rect=Rect("metal1", px - wire_width / 2, y_lo,
                          px + wire_width / 2, y_hi, net=net)))
    return segments


def reference_parallel_runs(segments, max_gap=3.0) -> list[tuple]:
    """:func:`repro.layout.router.parallel_runs` comparing every pair of
    trunks."""
    trunks = [s for s in segments if s.kind == "trunk"]
    out = []
    for i, a in enumerate(trunks):
        for b in trunks[i + 1:]:
            if a.net == b.net or abs(a.track - b.track) != 1:
                continue
            run = a.rect.horizontal_overlap(b.rect)
            if run <= 0:
                continue
            gap = a.rect.vertical_gap(b.rect)
            if gap <= max_gap:
                out.append((a.net, b.net, run, gap))
    return out


def reference_antenna_geometry(layout, flat, l_min_um=0.35,
                               metal_layers=("metal1", "metal2", "metal3")):
    """:func:`repro.layout.antenna_geom.antenna_geometry` scanning every
    rectangle once per net and metal layer (``Layout.net_area``)."""
    out = []
    for net in sorted(flat.nets):
        flat_net = flat.nets[net]
        gate_pins = flat_net.gate_pins()
        if not gate_pins or flat_net.is_rail:
            continue
        gate_area = 0.0
        for pin in gate_pins:
            device = flat.transistor(pin.device)
            gate_area += device.w_um * device.effective_length(l_min_um)
        out.append(AntennaGeometry(
            net=net,
            metal_area_um2=sum(layout.net_area(net, layer)
                               for layer in metal_layers),
            gate_area_um2=gate_area,
            has_diffusion=bool(flat_net.channel_pins()),
        ))
    return out


# -- switch-level simulation, Elmore delay and the sizing loop ----------------


class ExhaustiveSwitchSimulator(SwitchSimulator):
    """:class:`~repro.switchsim.engine.SwitchSimulator` re-solving every
    channel net of every CCC on each settle, as if no CCC had ever been
    evaluated.

    The production engine re-solves only the nets whose fan-in changed;
    its states, history, ``settle()`` returns and counters must equal
    this one's.
    """

    def settle(self, max_events: int = 100000) -> int:
        self._dirty = [None] * len(self.cccs)
        return super().settle(max_events)

    def _evaluate(self, idx: int) -> list[str]:
        self._dirty[idx] = None
        return super()._evaluate(idx)


def reference_elmore_delay(tree: RCTree, node: str,
                           driver_resistance: float = 0.0) -> float:
    """:meth:`repro.extraction.rctree.RCTree.elmore_delay` re-walking the
    downstream subtree of every node on the root path (O(path *
    subtree)), in a different association order than the linear
    passes."""
    if node not in tree._nodes:
        raise KeyError(f"RC tree has no node {node!r}")

    def subtree_cap(name: str) -> float:
        total = 0.0
        stack = [name]
        while stack:
            n = tree._nodes[stack.pop()]
            total += n.cap
            stack.extend(n.children)
        return total

    delay = driver_resistance * subtree_cap(tree.root)
    for name in tree.path_to_root(node):
        tree_node = tree._nodes[name]
        if tree_node.parent is None:
            continue
        delay += tree_node.r_to_parent * subtree_cap(name)
    return delay


def reference_close_timing(run: TimingRun, technology, path_nets, loads_f,
                           min_width_um: float = 0.4,
                           max_scale: float = 64.0) -> ClosureResult:
    """:func:`repro.timing.sizing.close_timing` rebuilding everything on
    each iteration: both corners re-annotated from the wireload
    extraction (``run`` must come from :func:`analyze_design`'s default
    parasitics), then the whole timing pipeline re-run under ``run``'s
    pessimism and false paths.  ``run`` is updated to the rebuilt
    objects."""
    design = run.design
    flat = run.fast.flat
    # Widths never enter the wireload model, so one extraction is exact
    # for every iteration.
    parasitics = WireloadModel().extract(flat, technology.wires)
    closure = ClosureResult(path_nets=list(path_nets))
    for index, c_load in enumerate(loads_f):
        sized = size_path(flat, design, technology, path_nets, c_load,
                          min_width_um=min_width_um, max_scale=max_scale)
        resized = {name for stage in sized.stages if stage.scale != 1.0
                   for name in stage.devices}
        rebuilt = analyze_annotated(
            design,
            annotate(flat, parasitics, technology, Corner.FAST),
            annotate(flat, parasitics, technology, Corner.SLOW),
            run.analyzer.clock,
            pessimism=run.calculator.pessimism,
            false_through=run.analyzer._false_through)
        run.fast, run.slow = rebuilt.fast, rebuilt.slow
        run.analyzer, run.calculator = rebuilt.analyzer, rebuilt.calculator
        run.report = report = rebuilt.report
        closure.iterations.append(SizingIteration(
            index=index,
            c_load_f=c_load,
            resized_devices=len(resized),
            nets_updated=len(rebuilt.fast.loads),
            arcs_repriced=len(rebuilt.analyzer.graph.arcs),
            min_cycle_time_s=report.min_cycle_time_s,
            worst_slack_s=report.worst_slack(),
        ))
    closure.report = run.report
    return closure
