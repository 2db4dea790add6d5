"""State-element recognition.

Paper section 4.3: "The reliability of recognizing circuit constraints
is a big problem due to the freedom the designers have in creating
state-elements on-the-fly.  The automatic recognition of state-elements
... is essential."

Full-custom latches come in three structural flavours this module finds:

* **cross-coupled storage** -- two restoring nodes whose drivers gate
  each other's *pull-down* networks (SRAM cells, jamb latches,
  back-to-back inverters).  Distinguished from DCVSL, whose
  cross-coupling is P-pull-up-only and whose pull-downs are gated by
  data; and from domino keepers, where only one direction of the loop is
  inverter-like.
* **pass-written storage** -- a net written only through pass devices
  that also drives gates: a transparent-latch storage node or a dynamic
  (capacitively held) latch node.
* **static vs dynamic** -- a pass-written node is *static* if it also
  sits on a feedback loop (a staticizing keeper path), otherwise
  *dynamic* and subject to the leakage checks of section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.devices import Transistor
from repro.netlist.flatten import FlatNetlist
from repro.recognition.ccc import ChannelConnectedComponent
from repro.recognition.conduction import conduction_paths
from repro.recognition.families import CCCClassification, CircuitFamily


@dataclass
class StorageNode:
    """A recognized state-holding net.

    Attributes
    ----------
    net:
        The storage net.
    static:
        True if a feedback path restores the level (cross-coupled or
        staticized); False for purely dynamic (capacitive) storage.
    kind:
        ``"cross_coupled"`` or ``"pass_written"``.
    write_devices:
        Pass-device names through which the node is written (empty for
        pure cross-coupled nodes whose writes fight the feedback).
    partner:
        For cross-coupled storage, the complementary node.
    enables:
        Gate nets of the write devices (the latch's clock/enable pins,
        to be cross-referenced with clock inference).
    """

    net: str
    static: bool
    kind: str
    write_devices: list[str] = field(default_factory=list)
    partner: str | None = None
    enables: set[str] = field(default_factory=set)


@dataclass
class _OutputInfo:
    """Per-restoring-output structural facts used for pairing."""

    classification: CCCClassification
    up_support: set[str]
    down_support: set[str]

    def loop_support(self) -> set[str]:
        return self.up_support | self.down_support


def restoring_facts(
    ccc: ChannelConnectedComponent,
) -> dict[str, tuple[set[str], set[str]]]:
    """Per-output ``(up support, down support)`` facts.

    Only outputs with both pull-up and pull-down paths appear; a CCC not
    touching both rails yields an empty dict.  Purely topological, so
    :class:`~repro.recognition.memo.ClassificationMemo` caches it per
    topology signature.
    """
    facts: dict[str, tuple[set[str], set[str]]] = {}
    if not (ccc.touches_rail("vdd") and ccc.touches_rail("gnd")):
        return facts
    for out in ccc.output_nets:
        down = conduction_paths(ccc, out, "gnd")
        up = conduction_paths(ccc, out, "vdd")
        if not down or not up:
            continue
        facts[out] = (up.support(), down.support())
    return facts


def _restoring_outputs(
    classified: list[CCCClassification],
    facts_fn=None,
) -> dict[str, _OutputInfo]:
    """Facts about every output of every CCC that touches both rails."""
    if facts_fn is None:
        facts_fn = restoring_facts
    info: dict[str, _OutputInfo] = {}
    for c in classified:
        for out, (up_sup, down_sup) in facts_fn(c.ccc).items():
            info[out] = _OutputInfo(
                classification=c,
                up_support=up_sup,
                down_support=down_sup,
            )
    return info


def _inverter_coupled(info: _OutputInfo, sibling: str) -> bool:
    """True when the sibling node participates in this output's
    *pull-down* network -- the restoring-loop signature of true storage
    (inverter pairs, SRAM cells, NAND/NOR set-reset latches).

    DCVSL is excluded on purpose: its cross-coupling is pull-up-only
    (the pull-downs are gated by data), and a domino keeper loop is
    excluded because the dynamic node's pull-down is gated by data and
    clock, not by the output inverter.
    """
    return sibling in info.down_support


def _strongly_connected(adj: dict[str, set[str]]) -> list[set[str]]:
    """Iterative Tarjan SCC.

    Hand-rolled because this sits on the recognition hot path and the
    graph is rebuilt for every design; a generic graph library costs
    more in node/edge object churn than the algorithm itself.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = 0
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[str, object]] = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                scc: set[str] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.add(w)
                    if w == v:
                        break
                sccs.append(scc)
    return sccs


def find_storage_nodes(
    flat: FlatNetlist,
    cccs: list[ChannelConnectedComponent],
    classified: list[CCCClassification],
    clock_nets: set[str] | frozenset[str] = frozenset(),
    facts_fn=None,
) -> list[StorageNode]:
    """Locate every state element in a classified design.

    ``facts_fn`` substitutes for :func:`restoring_facts` (the memoized
    variant caches per topology).
    """
    nodes: list[StorageNode] = []
    claimed: set[str] = set()

    # ---- cross-coupled pairs ------------------------------------------------
    outputs = _restoring_outputs(classified, facts_fn=facts_fn)
    for x in sorted(outputs):
        if x in claimed:
            continue
        ix = outputs[x]
        for y in sorted(ix.loop_support()):
            if y == x or y not in outputs or y in claimed:
                continue
            iy = outputs[y]
            if x not in iy.loop_support():
                continue
            if not (_inverter_coupled(ix, y) and _inverter_coupled(iy, x)):
                continue
            for net, partner, oinfo in ((x, y, ix), (y, x, iy)):
                writes = [
                    t for t in oinfo.classification.ccc.transistors
                    if net in t.channel_terminals()
                    and "vdd" not in t.channel_terminals()
                    and "gnd" not in t.channel_terminals()
                ]
                nodes.append(StorageNode(
                    net=net, static=True, kind="cross_coupled",
                    write_devices=[t.name for t in writes], partner=partner,
                    enables={t.gate for t in writes},
                ))
                claimed.add(net)
            break

    # ---- pass-written storage -------------------------------------------------
    pass_writers: dict[str, list[Transistor]] = {}
    strong_drivers: set[str] = set()
    for c in classified:
        if c.family in (CircuitFamily.PASS_NETWORK, CircuitFamily.TRANSMISSION_GATE):
            for t in c.ccc.transistors:
                for term in t.channel_terminals():
                    pass_writers.setdefault(term, []).append(t)
        else:
            for out in c.ccc.output_nets:
                strong_drivers.add(out)

    # Feedback detection: graph of gate edges (input -> output) plus pass
    # edges; a storage node is static if it lies on a cycle.
    adj: dict[str, set[str]] = {}
    gate_edges: set[tuple[str, str]] = set()
    for c in classified:
        inputs = [n for n in c.ccc.gate_nets() if n not in ("vdd", "gnd")]
        for out in c.ccc.output_nets:
            for inp in inputs:
                adj.setdefault(inp, set()).add(out)
                adj.setdefault(out, set())
                gate_edges.add((inp, out))
    for net, writers in pass_writers.items():
        for t in writers:
            other = t.other_channel_terminal(net)
            if other not in ("vdd", "gnd") and other != net:
                adj.setdefault(other, set()).add(net)
                adj.setdefault(net, set()).add(other)

    # A node is *staticized* only if its cycle goes through a restoring
    # (gate) edge -- the bidirectional pass edges alone just say the
    # channel is traversable, not that anything refreshes the level.
    # Label each net of a multi-net SCC with its SCC, then one scan of
    # the gate edges finds the SCCs holding one.
    sccs = _strongly_connected(adj)
    scc_of = {net: i for i, scc in enumerate(sccs) if len(scc) > 1
              for net in scc}
    restored = {scc_of[u] for u, v in gate_edges
                if u in scc_of and scc_of.get(v) == scc_of[u]}
    cyclic_nets = {net for i in restored for net in sccs[i]}

    gate_load_nets = {t.gate for t in flat.transistors}
    for net in sorted(pass_writers):
        if net in claimed or net in strong_drivers:
            continue
        flat_net = flat.nets.get(net)
        if flat_net is not None and (flat_net.is_rail or flat_net.is_port):
            # Rails are not storage; ports are externally driven.
            continue
        if net not in gate_load_nets:
            continue  # a through-route, not a stored value
        writers = pass_writers[net]
        nodes.append(StorageNode(
            net=net,
            static=net in cyclic_nets,
            kind="pass_written",
            write_devices=sorted({t.name for t in writers}),
            enables={t.gate for t in writers},
        ))
        claimed.add(net)

    return nodes
