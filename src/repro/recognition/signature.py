"""Canonical topology signatures for channel-connected components.

Full-custom designs stamp out the same bit-slice hundreds of times: an
N-bit datapath contains N copies of each carry CCC, each sum CCC, each
latch CCC, differing only in net and device *names*.  Classification
(:func:`repro.recognition.families.classify_ccc`) and static-gate
extraction read nothing but topology, so all those copies can share one
classification -- provided we can tell, cheaply and *soundly*, that two
CCCs are topologically identical.

The signature computed here is a canonical form of the CCC's switch
graph:

* every net gets an integer label via colour refinement
  (Weisfeiler-Leman style) seeded from its electrical role -- rail
  identity, channel membership, output membership;
* every device gets a canonical slot ordered by its refined colour and
  labelled terminals;
* the :attr:`CCCSignature.key` is the complete labelled structure: the
  per-label role tuple plus every device row expressed in labels.

**Soundness** does not depend on the refinement being perfect: two CCCs
share a key only when their labelled structures are *identical*, in
which case the label-to-label correspondence is itself an isomorphism
that preserves everything classification reads (polarity, gate/channel
incidence, rail names, output membership).  Imperfect refinement (ties
broken by actual net name) can at worst give isomorphic CCCs different
keys -- a cache miss, never a wrong hit.

Device geometry (W/L) is deliberately **excluded** from the key:
``classify_ccc`` and ``recognize_static_gate`` are purely topological
(they never read ``w_um``/``l_um``), so differently-sized copies of the
same structure -- a tapered clock-buffer chain, a beefed-up MSB slice --
share one classification.  If classification ever grows a geometry
dependence, this module must add it to the key (the memoization property
test in ``tests/property`` will catch the divergence).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.nets import is_rail_name
from repro.recognition.ccc import ChannelConnectedComponent

#: Colour-refinement rounds.  CCCs are tiny (a handful of devices), and
#: one round separates everything the initial roles miss on every design
#: family in the repo; running to stability costs a confirmation round
#: per CCC for nothing.  More rounds can only improve cache hit rate --
#: never correctness, which rests on the key embedding the full labelled
#: structure -- so bump this if a new design family shows excess misses.
REFINEMENT_ROUNDS = 1


@dataclass(frozen=True)
class CCCSignature:
    """The canonical form of one CCC plus the maps back to reality.

    Attributes
    ----------
    key:
        Hashable canonical structure.  Equal keys imply the two CCCs are
        isomorphic under the label correspondence.
    nets:
        Label -> actual net name (``nets[label]``).
    labels:
        Actual net name -> label.
    devices:
        Canonical device slot -> actual device name.
    """

    key: tuple
    nets: tuple[str, ...]
    labels: dict[str, int]
    devices: tuple[str, ...]


def _initial_roles(ccc: ChannelConnectedComponent) -> dict[str, tuple]:
    """Seed colours: electrical role of every net the CCC touches."""
    roles: dict[str, tuple] = {}
    for t in ccc.transistors:
        for net in (t.gate, *t.channel_terminals()):
            if net in roles:
                continue
            if is_rail_name(net) and net not in ccc.channel_nets:
                # Rail identity is part of the structure: vdd-gated and
                # gnd-gated constants behave differently, and conduction
                # terminates at rails by *name*.
                roles[net] = (0, net)
            else:
                roles[net] = (
                    1,
                    "c" if net in ccc.channel_nets else "i",
                    "o" if net in ccc.output_nets else "-",
                )
    return roles


def topology_signature(ccc: ChannelConnectedComponent,
                       shapes: dict | None = None) -> CCCSignature:
    """Compute the canonical signature of one CCC.

    Cost is O(rounds * edges * log(edges)); CCCs are small (a handful to
    a few dozen devices), so this is far cheaper than one conduction
    path enumeration.

    ``shapes`` caches signatures by *shape*: the CCC written over the
    sorted order of its net names and device names.  Names enter the
    computation below only through those two orders (every tie-break
    reads them), so a CCC of a known shape gets the earlier signature
    renamed to its own nets and devices -- bit-identical to computing
    it, at the cost of building the shape.  Bit-slices stamped with
    systematic names share a handful of shapes.
    """
    roles = _initial_roles(ccc)
    net_names = sorted(roles)
    dev_list = ccc.transistors
    nn = len(net_names)
    nd = len(dev_list)

    # Everything below works on integer indices; name lookups happen
    # exactly once here (this function runs once per CCC instance).
    nidx = {n: i for i, n in enumerate(net_names)}
    dev_gate = [nidx[t.gate] for t in dev_list]
    dev_a = [nidx[t.drain] for t in dev_list]
    dev_b = [nidx[t.source] for t in dev_list]
    dev_pol = [0 if t.polarity == "nmos" else 1 for t in dev_list]
    if shapes is not None:
        dev_names = [t.name for t in dev_list]
        shape = (tuple(map(roles.__getitem__, net_names)),
                 tuple(dev_gate), tuple(dev_a), tuple(dev_b), tuple(dev_pol),
                 tuple(sorted(range(nd), key=dev_names.__getitem__)))
        known = shapes.get(shape)
        if known is not None:
            key, net_order, net_labels, dev_order = known
            return CCCSignature(
                key=key, nets=tuple(map(net_names.__getitem__, net_order)),
                labels=dict(zip(net_names, net_labels)),
                devices=tuple(map(dev_names.__getitem__, dev_order)),
            )

    # Incidence lists used every round.
    gated_by: list[list[int]] = [[] for _ in range(nn)]
    chan_of: list[list[int]] = [[] for _ in range(nn)]
    for i in range(nd):
        gated_by[dev_gate[i]].append(i)
        chan_of[dev_a[i]].append(i)
        chan_of[dev_b[i]].append(i)

    # Colour palettes: ints, refined in lockstep for nets and devices.
    palette = {role: i for i, role in enumerate(sorted(set(roles.values())))}
    net_color = [palette[roles[n]] for n in net_names]
    dev_color = list(dev_pol)

    distinct = len(set(net_color)) + len(set(dev_color))
    for _round in range(REFINEMENT_ROUNDS):
        if distinct == nn + nd:
            break  # partition already discrete; nothing left to refine
        dev_sig = []
        for i in range(nd):
            a = net_color[dev_a[i]]
            b = net_color[dev_b[i]]
            if a > b:
                a, b = b, a
            dev_sig.append((dev_color[i], net_color[dev_gate[i]], a, b))
        net_sig = [
            (net_color[n],
             tuple(sorted(dev_sig[d] for d in gated_by[n])),
             tuple(sorted(dev_sig[d] for d in chan_of[n])))
            for n in range(nn)
        ]
        dpal = {s: i for i, s in enumerate(sorted(set(dev_sig)))}
        npal = {s: i for i, s in enumerate(sorted(set(net_sig)))}
        dev_color = [dpal[s] for s in dev_sig]
        net_color = [npal[s] for s in net_sig]
        after = len(npal) + len(dpal)
        if after == distinct:
            break
        distinct = after

    # Total order on nets: refined colour first, actual name as the
    # deterministic tie-break (ties are either true automorphisms, where
    # any choice is equivalent, or refinement blind spots, where a
    # "wrong" choice merely costs a cache hit).
    order = sorted(range(nn), key=lambda i: (net_color[i], net_names[i]))
    label_of = [0] * nn
    for lbl, i in enumerate(order):
        label_of[i] = lbl
    ordered_nets = tuple(net_names[i] for i in order)
    labels = {net_names[i]: label_of[i] for i in range(nn)}

    rows = []
    for i in range(nd):
        a = label_of[dev_a[i]]
        b = label_of[dev_b[i]]
        if a > b:
            a, b = b, a
        rows.append((dev_pol[i], label_of[dev_gate[i]], a, b,
                     dev_list[i].name, i))
    rows.sort()
    device_names = tuple(r[4] for r in rows)
    device_rows = tuple(r[:4] for r in rows)

    key = (
        tuple(roles[n] for n in ordered_nets),
        device_rows,
    )
    if shapes is not None:
        shapes[shape] = (key, tuple(order), tuple(label_of),
                         tuple(r[5] for r in rows))
    return CCCSignature(
        key=key,
        nets=ordered_nets,
        labels=labels,
        devices=device_names,
    )
