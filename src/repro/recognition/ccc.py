"""Channel-connected components.

The classic decomposition for transistor-level analysis: transistors
whose channels (drain/source) touch through non-rail nets belong to one
component.  Rails (vdd/gnd) do not merge components -- every gate's
pull-up and pull-down meet at its output, not at the supply.

A CCC is the unit at which logic-family classification, boolean
extraction, and most electrical checks operate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.devices import Transistor
from repro.netlist.flatten import FlatNetlist


@dataclass
class ChannelConnectedComponent:
    """One channel-connected group of transistors.

    Attributes
    ----------
    index:
        Stable id within the design (order of discovery).
    transistors:
        Member devices.
    channel_nets:
        Non-rail nets touched by member channels (internal nodes plus
        outputs).
    input_nets:
        Nets that drive member gates but are not channel nets of this
        CCC (external inputs).
    output_nets:
        Channel nets that are visible outside the CCC: they drive gates
        of *other* CCCs, drive gates within this CCC (feedback), or are
        ports.  Conservative superset, per the paper's "conservatively
        deduced" rule.
    internal_nets:
        Channel nets that are not outputs (stack midpoints).
    path_cache:
        Memo for :func:`~repro.recognition.conduction.conduction_paths`,
        keyed ``(source, target, max_paths)``.  Safe because a CCC's
        topology never changes after extraction; excluded from equality.
    signature_cache:
        Lazily computed
        :class:`~repro.recognition.signature.CCCSignature`.  Living on
        the CCC (not in a cache keyed by it) ties its lifetime to the
        component, so long-lived memo objects never pin dead designs.
    """

    index: int
    transistors: list[Transistor] = field(default_factory=list)
    channel_nets: set[str] = field(default_factory=set)
    input_nets: set[str] = field(default_factory=set)
    output_nets: set[str] = field(default_factory=set)
    internal_nets: set[str] = field(default_factory=set)
    path_cache: dict = field(default_factory=dict, repr=False, compare=False)
    signature_cache: object = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        """Strip memo caches from pickles.

        ``path_cache``/``signature_cache`` and the lazily-attached sweep
        state (see :func:`repro.recognition.conduction._sweep_state`)
        are pure derived memos -- dropping them keeps checkpoint blobs
        small and guarantees an unpickled CCC re-derives them against
        its own object graph.
        """
        state = dict(self.__dict__)
        state["path_cache"] = {}
        state["signature_cache"] = None
        state.pop("_sweep_state", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def nmos(self) -> list[Transistor]:
        return [t for t in self.transistors if t.polarity == "nmos"]

    def pmos(self) -> list[Transistor]:
        return [t for t in self.transistors if t.polarity == "pmos"]

    def touches_rail(self, rail: str) -> bool:
        """True if any member channel terminal is the given rail net."""
        return any(rail in t.channel_terminals() for t in self.transistors)

    def gate_nets(self) -> set[str]:
        """All nets gating member devices (internal feedback included)."""
        return {t.gate for t in self.transistors}

    def size(self) -> int:
        return len(self.transistors)


def extract_cccs(flat: FlatNetlist) -> list[ChannelConnectedComponent]:
    """Partition a flat netlist's transistors into CCCs.

    Isolated transistors (both channel terminals on rails, e.g. decap
    devices) each form their own single-device component.
    """
    from repro.netlist.nets import is_rail_name

    transistors = flat.transistors
    nets = flat.nets
    n_dev = len(transistors)

    # A net known to the netlist and rail-named merges nothing; an
    # unregistered name is conservatively treated as a channel net.
    rail: dict[str, bool] = {}

    def is_rail_net(term: str) -> bool:
        r = rail.get(term)
        if r is None:
            rail[term] = r = term in nets and is_rail_name(term)
        return r

    # Integer union-find: slots 0..n_dev-1 are device anchors, channel
    # nets get slots on first sight.
    parent = list(range(n_dev))
    size = [1] * n_dev
    net_slot: dict[str, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, t in enumerate(transistors):
        for term in t.channel_terminals():
            if is_rail_net(term):
                continue
            j = net_slot.get(term)
            if j is None:
                net_slot[term] = j = len(parent)
                parent.append(j)
                size.append(1)
            ri, rj = find(i), find(j)
            if ri != rj:
                # Union by size keeps find() paths logarithmic even on
                # long pass-transistor strings.
                if size[ri] < size[rj]:
                    ri, rj = rj, ri
                parent[rj] = ri
                size[ri] += size[rj]

    groups: dict[int, list[int]] = {}
    for i in range(n_dev):
        groups.setdefault(find(i), []).append(i)

    # Which nets drive at least one gate anywhere in the design.
    gate_loads: dict[str, int] = {}
    for t in transistors:
        gate_loads[t.gate] = gate_loads.get(t.gate, 0) + 1

    cccs: list[ChannelConnectedComponent] = []
    # Deterministic order: by smallest member device index.
    for members in sorted(groups.values(), key=lambda m: m[0]):
        ccc = ChannelConnectedComponent(index=len(cccs))
        ccc.transistors = [transistors[i] for i in members]
        for t in ccc.transistors:
            for term in t.channel_terminals():
                if not is_rail_net(term):
                    ccc.channel_nets.add(term)
        for t in ccc.transistors:
            if t.gate not in ccc.channel_nets and not is_rail_net(t.gate):
                ccc.input_nets.add(t.gate)
        for net_name in ccc.channel_nets:
            net = nets.get(net_name)
            is_port = net.is_port if net is not None else False
            if is_port or gate_loads.get(net_name, 0) > 0:
                ccc.output_nets.add(net_name)
        ccc.internal_nets = ccc.channel_nets - ccc.output_nets
        cccs.append(ccc)
    return cccs


def ccc_of_net(cccs: list[ChannelConnectedComponent], net: str) -> list[ChannelConnectedComponent]:
    """All CCCs whose channel nets include ``net`` (pass networks may share)."""
    return [c for c in cccs if net in c.channel_nets]
