"""Reference implementations the production fast paths must match.

Slow on purpose: each is the straightforward form of an algorithm that
production runs in a faster form, kept here so the property tests, the
differential tests and ``benchmarks/setup_report.py`` can demand
bit-identical results.

* :func:`enumerate_pair` -- the per-(source, target) depth-first walk
  that defines which conduction paths a pair has, and in which order.
  :func:`repro.recognition.conduction.conduction_paths` answers the
  same question from one target-rooted sweep per target.
* :func:`direct_tables` -- the packed switch tables built CCC instance
  by CCC instance from per-pair walks.
  :meth:`repro.switchsim.tables.PackedSwitchTables.build` stamps
  per-CCC-shape templates from sweeps instead, and must match it byte
  for byte (:func:`table_mismatches`).
* :class:`OracleDelayCalculator` -- STA arc pricing with one
  ``MosfetModel.on_resistance`` call per device of every path of every
  arc.  :class:`repro.timing.delay.ArcDelayCalculator` reads per-shape
  resistance tables and prices each device and path once per CCC, and
  must produce float-for-float the same arcs.
* :func:`support`, :func:`truth_table`, :func:`conduction_function` and
  the other path-list queries below -- the per-path forms of the
  order-free questions :class:`repro.recognition.conduction.PathSet`
  answers from its masks.
* :class:`OracleHotCarrierCheck` -- the hot-carrier check testing every
  NMOS device against every pull-down path of its CCC, where
  :class:`repro.checks.hot_carrier.HotCarrierCheck` reads each device's
  shortest path from one pass over each output's ``PathSet``.
* :func:`reference_storage_nodes` -- latch finding with per-path gate
  sets, a per-SCC scan of every gate edge and a device-list search per
  pass writer, where :func:`repro.recognition.latches.find_storage_nodes`
  reads supports, labels nets by SCC and holds the writers themselves.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.checks.base import CheckContext, Finding, Severity
from repro.checks.hot_carrier import HotCarrierCheck
from repro.netlist.flatten import FlatNetlist
from repro.netlist.nets import is_rail_name, is_supply_name
from repro.recognition.ccc import ChannelConnectedComponent, extract_cccs
from repro.recognition.conduction import ConductionPath, conduction_paths
from repro.recognition.families import CCCClassification, CircuitFamily
from repro.recognition.latches import StorageNode, _strongly_connected
from repro.timing.delay import ArcDelayCalculator

#: Every numpy column of the packed tables.
TABLE_ARRAYS = (
    "row_net", "row_ccc", "row_wave", "path_ptr", "path_src",
    "path_src_rail", "path_g", "cond_ptr", "cond_gate", "cond_level",
    "cond_internal", "cond_path", "aff_later_ptr", "aff_later_rows",
)


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
        # The reference engine's series formula, device by device.
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
    cond_ptr_arr = np.array(cond_ptr, np.int64)
    return {
        "row_net": np.array(row_net, np.int64),
        "row_ccc": np.array(row_ccc, np.int64),
        "row_wave": np.array(row_wave, np.int64),
        "path_ptr": np.array(path_ptr, np.int64),
        "path_src": np.array(path_src, np.int64),
        "path_src_rail": np.array(path_src_rail, bool),
        "path_g": np.array(path_g, np.float64),
        "cond_ptr": cond_ptr_arr,
        "cond_gate": np.array(cond_gate, np.int64),
        "cond_level": np.array(cond_level, np.int8),
        "cond_internal": np.array(cond_internal, bool),
        "cond_path": np.repeat(np.arange(len(path_src), dtype=np.int32),
                               np.diff(cond_ptr_arr)),
        "aff_later_ptr": np.array(aff_ptr, np.int64),
        "aff_later_rows": np.array(aff_flat, np.int64),
        "row_name": [names[i] for i in row_net],
        "affected_rows": affected_rows,
    }


def table_mismatches(tables, reference: dict) -> list[str]:
    """Names of the packed arrays in which ``tables`` (a built
    :class:`~repro.switchsim.tables.PackedSwitchTables`) differs from
    ``reference`` (:func:`direct_tables`) in dtype, shape or bytes;
    empty when they are identical."""
    bad = []
    for name in TABLE_ARRAYS:
        x, y = getattr(tables, name), reference[name]
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
    return bad


class OracleDelayCalculator(ArcDelayCalculator):
    """Arc pricing without the shape tables or the per-CCC memo.

    Every path of every arc is priced afresh, and every device on it
    costs one model evaluation.  Only the pricing differs from the
    production calculator; loads and derates are inherited.
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
        return sum(sorted(values))

    def drive_bounds(self, paths_through_input, prices=None):
        if not paths_through_input:
            raise ValueError("arc needs at least one conduction path")
        r_min = min(self.path_resistance(path, self.fast)
                    for path in paths_through_input)
        r_max = max(self.path_resistance(path, self.slow)
                    for path in paths_through_input)
        return r_min, r_max


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
                out: conduction_paths(ccc, out, "gnd").paths()
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
