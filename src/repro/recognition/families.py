"""Logic-family classification of channel-connected components.

Paper section 2: "Transistors are combined together to form a broad
range of logic families with full and reduced output voltage swings.
The logic families include dynamic, single or dual-rail circuits,
differential cascode voltage swing logic (DCVSL), pass transistor logic,
and of course, complementary logic gates."

Classification is per-CCC and purely structural.  Families whose
signature spans *multiple* CCCs (DCVSL pairs, cross-coupled storage,
dual-rail domino pairs) are resolved by the pairing helpers at the
bottom, which the top-level :mod:`~repro.recognition.recognizer` calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.recognition.ccc import ChannelConnectedComponent
from repro.recognition.conduction import conduction_paths
from repro.recognition.gates import RecognizedGate, recognize_static_gate


class CircuitFamily(enum.Enum):
    """The structural family of one CCC."""

    STATIC = "static"                    # complementary pull-up/pull-down
    RATIOED = "ratioed"                  # fighting pull-up (pseudo-NMOS etc.)
    DYNAMIC = "dynamic"                  # precharge/evaluate node
    CROSS_COUPLED_HALF = "cross_half"    # pull-up gated by a sibling output
    PASS_NETWORK = "pass"                # no rail contact: pure pass logic
    TRANSMISSION_GATE = "tgate"          # n+p pass pair on one net pair
    PULL_ONLY = "pull_only"              # touches one rail only (keeper leg...)
    ISOLATED = "isolated"                # all channel terminals on rails (decap)
    UNKNOWN = "unknown"


@dataclass
class DynamicNode:
    """A recognized precharge/evaluate node.

    Attributes
    ----------
    net:
        The dynamic node.
    precharge_devices:
        PMOS devices whose channel ties the node to vdd, gated by a clock.
    foot_devices:
        Clock-gated NMOS in the evaluate network (empty for footless).
    eval_inputs:
        Data inputs of the evaluate network (clock excluded).
    clock:
        The clock net that precharges this node.
    keeper_devices:
        Filled in later by the recognizer (needs global gate info).
    """

    net: str
    precharge_devices: list[str]
    foot_devices: list[str]
    eval_inputs: set[str]
    clock: str
    keeper_devices: list[str] = field(default_factory=list)


@dataclass
class CCCClassification:
    """Everything recognition learned about one CCC."""

    ccc: ChannelConnectedComponent
    family: CircuitFamily
    gates: dict[str, RecognizedGate] = field(default_factory=dict)
    dynamic_nodes: dict[str, DynamicNode] = field(default_factory=dict)
    pass_pairs: list[tuple[str, str]] = field(default_factory=list)
    cross_coupled_with: set[str] = field(default_factory=set)  # gating outputs
    notes: list[str] = field(default_factory=list)


def classify_ccc(
    ccc: ChannelConnectedComponent,
    clock_nets: frozenset[str] | set[str] = frozenset(),
    gate_fn=None,
) -> CCCClassification:
    """Classify one CCC given the design's (inferred) clock nets.

    ``gate_fn`` substitutes for :func:`recognize_static_gate`; the
    memoization layer (:mod:`repro.recognition.memo`) passes its cached
    variant here so gate extraction is shared with clock inference.
    """
    if gate_fn is None:
        gate_fn = recognize_static_gate
    result = CCCClassification(ccc=ccc, family=CircuitFamily.UNKNOWN)

    if not ccc.channel_nets:
        result.family = CircuitFamily.ISOLATED
        return result

    touches_vdd = ccc.touches_rail("vdd")
    touches_gnd = ccc.touches_rail("gnd")

    if not touches_vdd and not touches_gnd:
        result.family = CircuitFamily.PASS_NETWORK
        result.pass_pairs = _pass_pairs(ccc)
        if _is_single_transmission_gate(ccc):
            result.family = CircuitFamily.TRANSMISSION_GATE
        return result

    if not (touches_vdd and touches_gnd):
        result.family = CircuitFamily.PULL_ONLY
        result.notes.append(
            "touches only %s" % ("vdd" if touches_vdd else "gnd")
        )
        return result

    # Per-output structural analysis.
    outputs = sorted(ccc.output_nets) or sorted(ccc.channel_nets)
    n_static = n_dynamic = n_cross = n_ratioed = 0
    for out in outputs:
        up_paths = conduction_paths(ccc, out, "vdd")
        down_paths = conduction_paths(ccc, out, "gnd")
        if not up_paths or not down_paths:
            continue
        up_support = up_paths.support()
        down_support = down_paths.support()

        gate = gate_fn(ccc, out)
        if gate is not None and gate.complementary:
            result.gates[out] = gate
            n_static += 1
            continue

        clocks = set(clock_nets)
        pure_clock_up = up_paths.gated_within(clocks)
        if pure_clock_up:
            # Precharge pull-up exists: a dynamic node.  Pull-up devices
            # not on a pure-clock path are keeper candidates.
            pre_devices = sorted(pure_clock_up.devices())
            keeper_devices = sorted(up_paths.devices() - set(pre_devices))
            data = down_support - clocks
            foot = [t.name for t in ccc.nmos() if t.gate in clocks]
            clock = min(pure_clock_up.support())
            result.dynamic_nodes[out] = DynamicNode(
                net=out,
                precharge_devices=pre_devices,
                foot_devices=foot,
                eval_inputs=data,
                clock=clock,
                keeper_devices=keeper_devices,
            )
            n_dynamic += 1
            continue

        sibling_gated = up_support - set(clock_nets) - down_support
        if sibling_gated:
            # Pull-up gated by some other signal entirely: candidate
            # cross-coupled half (DCVSL / storage); the recognizer pairs
            # these up globally.
            result.cross_coupled_with |= sibling_gated
            n_cross += 1
            continue

        if gate is not None and not gate.complementary:
            result.gates[out] = gate
            n_ratioed += 1
            continue
        n_ratioed += 1

    if n_dynamic and not n_static and not n_cross:
        result.family = CircuitFamily.DYNAMIC
    elif n_dynamic:
        result.family = CircuitFamily.DYNAMIC
        result.notes.append("mixed dynamic/static CCC")
    elif n_cross:
        result.family = CircuitFamily.CROSS_COUPLED_HALF
    elif n_static and not n_ratioed:
        result.family = CircuitFamily.STATIC
    elif n_ratioed:
        result.family = CircuitFamily.RATIOED
    else:
        result.family = CircuitFamily.UNKNOWN
    return result


def _pass_pairs(ccc: ChannelConnectedComponent) -> list[tuple[str, str]]:
    """Net pairs bridged by pass devices (each device's channel pair)."""
    pairs = set()
    for t in ccc.transistors:
        d, s = sorted(t.channel_terminals())
        pairs.add((d, s))
    return sorted(pairs)


def _is_single_transmission_gate(ccc: ChannelConnectedComponent) -> bool:
    """Exactly one NMOS and one PMOS spanning the same net pair."""
    if ccc.size() != 2:
        return False
    n, p = ccc.nmos(), ccc.pmos()
    if len(n) != 1 or len(p) != 1:
        return False
    return set(n[0].channel_terminals()) == set(p[0].channel_terminals())


def find_cross_coupled_pairs(
    classified: list[CCCClassification],
) -> list[tuple[CCCClassification, CCCClassification]]:
    """Pair up CROSS_COUPLED_HALF CCCs that gate each other.

    A DCVSL gate or a cross-coupled storage element shows up as two CCCs,
    each with a pull-up gated by an output of the other.
    """
    halves = [c for c in classified if c.family is CircuitFamily.CROSS_COUPLED_HALF]
    by_output: dict[str, CCCClassification] = {}
    for c in halves:
        for out in c.ccc.output_nets:
            by_output[out] = c
    pairs: list[tuple[CCCClassification, CCCClassification]] = []
    seen: set[int] = set()
    for c in halves:
        if id(c) in seen:
            continue
        for gating in c.cross_coupled_with:
            other = by_output.get(gating)
            if other is None or other is c or id(other) in seen:
                continue
            # Does the other half point back at one of our outputs?
            if other.cross_coupled_with & c.ccc.output_nets:
                pairs.append((c, other))
                seen.add(id(c))
                seen.add(id(other))
                break
    return pairs
