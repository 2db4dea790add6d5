"""Signature-keyed memoization of CCC classification and gate extraction.

The expensive parts of recognition -- conduction-path enumeration and
truth-table extraction -- are pure functions of CCC *topology*, and the
design generators stamp out thousands of topologically identical
bit-slices.  :class:`ClassificationMemo` classifies each distinct
topology once and *instantiates* the cached result for every other copy
by renaming nets and devices through the signature's label maps.

Instantiation reproduces fresh classification bit-for-bit:

* gate truth tables are permuted to the copy's own sorted-input order;
* device lists are renamed through the canonical slots and re-sorted,
  exactly as the fresh code sorts them;
* order-sensitive derivations (the clock chosen from a precharge path's
  support, dict insertion order over sorted outputs) are re-derived from
  the copy's actual names rather than copied;
* cheap O(devices) fields (domino footers, pass pairs) are recomputed
  directly -- copying them would save nothing and would have to mimic
  transistor-list order.

The property test in ``tests/property/test_memoized_recognition.py``
asserts memoized == fresh over randomized designs; treat it as the
contract for this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.recognition.ccc import ChannelConnectedComponent
from repro.recognition.families import (
    CCCClassification,
    CircuitFamily,
    DynamicNode,
    _pass_pairs,
    classify_ccc,
)
from repro.recognition.clocks import ccc_clock_seeds
from repro.recognition.gates import RecognizedGate, recognize_static_gate
from repro.recognition.latches import restoring_facts
from repro.recognition.signature import CCCSignature, topology_signature


@dataclass(frozen=True)
class _GateTemplate:
    """A RecognizedGate with nets as labels; table over ``inputs`` order."""

    inputs: tuple[int, ...]
    table: int
    complementary: bool


@dataclass(frozen=True)
class _DynTemplate:
    """A DynamicNode with nets as labels and devices as slots."""

    precharge: tuple[int, ...]
    keeper: tuple[int, ...]
    eval_inputs: tuple[int, ...]


@dataclass(frozen=True)
class _ClassTemplate:
    """One classification, expressed entirely in canonical labels."""

    family: CircuitFamily
    notes: tuple[str, ...]
    gates: tuple[tuple[int, _GateTemplate], ...]
    dynamic: tuple[tuple[int, _DynTemplate], ...]
    cross: tuple[int, ...]
    has_pass_pairs: bool


def _permute_table(table: int, order: list[int]) -> int:
    """Re-index a truth table: new input k was old input ``order[k]``."""
    n = len(order)
    if order == list(range(n)):
        return table
    new = 0
    for idx in range(1 << n):
        old = 0
        for k in range(n):
            if (idx >> k) & 1:
                old |= 1 << order[k]
        if (table >> old) & 1:
            new |= 1 << idx
    return new


def _instantiate_gate(tpl: _GateTemplate, output: str,
                      sig: CCCSignature) -> RecognizedGate:
    names = [sig.nets[l] for l in tpl.inputs]
    order = sorted(range(len(names)), key=names.__getitem__)
    return RecognizedGate(
        output=output,
        inputs=[names[k] for k in order],
        table=_permute_table(tpl.table, order),
        complementary=tpl.complementary,
    )


class ClassificationMemo:
    """Shared cache for :func:`classify_ccc` and static-gate extraction.

    One memo per :func:`~repro.recognition.recognizer.recognize` call
    deduplicates bit-slices within a design; a memo held by a
    :class:`repro.perf.DesignCache` additionally shares classifications
    across designs (the memo keeps no reference to any flat netlist, so
    cross-design reuse is safe).

    Counters: :attr:`classify_hits` / :attr:`classify_misses` /
    :attr:`gate_hits` / :attr:`gate_misses`.
    """

    def __init__(self) -> None:
        self._classes: dict[tuple, _ClassTemplate] = {}
        self._gates: dict[tuple, _GateTemplate | None] = {}
        self._seeds: dict[tuple, tuple[int, ...]] = {}
        # key -> per-output facts in labels: (out, up, down supports).
        self._restoring: dict[tuple, tuple] = {}
        # CCC shape -> signature parts (see ``topology_signature``).
        self._shapes: dict[tuple, tuple] = {}
        self.classify_hits = 0
        self.classify_misses = 0
        self.gate_hits = 0
        self.gate_misses = 0

    # -- signatures ----------------------------------------------------------

    def signature(self, ccc: ChannelConnectedComponent) -> CCCSignature:
        sig = ccc.signature_cache
        if sig is None:
            ccc.signature_cache = sig = topology_signature(ccc, self._shapes)
        return sig

    def counters(self) -> dict[str, int]:
        return {
            "classify_hits": self.classify_hits,
            "classify_misses": self.classify_misses,
            "gate_hits": self.gate_hits,
            "gate_misses": self.gate_misses,
        }

    # -- gate extraction ------------------------------------------------------

    def gate(self, ccc: ChannelConnectedComponent,
             output: str) -> RecognizedGate | None:
        """Memoized :func:`recognize_static_gate` (topology-keyed)."""
        sig = self.signature(ccc)
        label = sig.labels.get(output)
        if label is None:
            return recognize_static_gate(ccc, output)
        key = (sig.key, label)
        if key in self._gates:
            self.gate_hits += 1
            tpl = self._gates[key]
            return None if tpl is None else _instantiate_gate(tpl, output, sig)
        self.gate_misses += 1
        fresh = recognize_static_gate(ccc, output)
        if fresh is None:
            self._gates[key] = None
        else:
            self._gates[key] = _GateTemplate(
                inputs=tuple(sig.labels[n] for n in fresh.inputs),
                table=fresh.table,
                complementary=fresh.complementary,
            )
        return fresh

    # -- clock seeds -----------------------------------------------------------

    def clock_seeds(self, ccc: ChannelConnectedComponent) -> set[str]:
        """Memoized :func:`~repro.recognition.clocks.ccc_clock_seeds`."""
        sig = self.signature(ccc)
        tpl = self._seeds.get(sig.key)
        if tpl is None:
            fresh = ccc_clock_seeds(ccc, gate_fn=self.gate)
            self._seeds[sig.key] = tpl = tuple(
                sorted(sig.labels[n] for n in fresh))
            return fresh
        return {sig.nets[l] for l in tpl}

    # -- latch facts -----------------------------------------------------------

    def restoring(self, ccc: ChannelConnectedComponent,
                  ) -> dict[str, tuple[set[str], set[str]]]:
        """Memoized :func:`~repro.recognition.latches.restoring_facts`."""
        sig = self.signature(ccc)
        tpl = self._restoring.get(sig.key)
        if tpl is None:
            fresh = restoring_facts(ccc)
            self._restoring[sig.key] = tuple(
                (sig.labels[out],
                 frozenset(sig.labels[n] for n in up_sup),
                 frozenset(sig.labels[n] for n in down_sup))
                for out, (up_sup, down_sup) in fresh.items()
            )
            return fresh
        return {
            sig.nets[out]: ({sig.nets[n] for n in up},
                            {sig.nets[n] for n in dn})
            for out, up, dn in tpl
        }

    # -- classification --------------------------------------------------------

    def classify(self, ccc: ChannelConnectedComponent,
                 clock_nets: frozenset[str] | set[str] = frozenset(),
                 ) -> CCCClassification:
        """Memoized :func:`classify_ccc`."""
        sig = self.signature(ccc)
        clock_labels = tuple(sorted(
            sig.labels[n] for n in clock_nets if n in sig.labels
        ))
        key = (sig.key, clock_labels)
        tpl = self._classes.get(key)
        if tpl is not None:
            self.classify_hits += 1
            return self._instantiate(tpl, ccc, sig, clock_nets)
        self.classify_misses += 1
        fresh = classify_ccc(ccc, clock_nets, gate_fn=self.gate)
        self._classes[key] = self._template(fresh, sig)
        return fresh

    def _template(self, fresh: CCCClassification,
                  sig: CCCSignature) -> _ClassTemplate:
        slot_of = {name: i for i, name in enumerate(sig.devices)}
        gates = tuple(
            (sig.labels[out], _GateTemplate(
                inputs=tuple(sig.labels[n] for n in g.inputs),
                table=g.table,
                complementary=g.complementary,
            ))
            for out, g in fresh.gates.items()
        )
        dynamic = tuple(
            (sig.labels[out], _DynTemplate(
                precharge=tuple(slot_of[d] for d in dyn.precharge_devices),
                keeper=tuple(slot_of[d] for d in dyn.keeper_devices),
                eval_inputs=tuple(sorted(
                    sig.labels[n] for n in dyn.eval_inputs)),
            ))
            for out, dyn in fresh.dynamic_nodes.items()
        )
        return _ClassTemplate(
            family=fresh.family,
            notes=tuple(fresh.notes),
            gates=gates,
            dynamic=dynamic,
            cross=tuple(sorted(sig.labels[n]
                               for n in fresh.cross_coupled_with)),
            has_pass_pairs=bool(fresh.pass_pairs)
            or fresh.family in (CircuitFamily.PASS_NETWORK,
                                CircuitFamily.TRANSMISSION_GATE),
        )

    def _instantiate(self, tpl: _ClassTemplate,
                     ccc: ChannelConnectedComponent, sig: CCCSignature,
                     clock_nets: frozenset[str] | set[str],
                     ) -> CCCClassification:
        result = CCCClassification(ccc=ccc, family=tpl.family)
        result.notes = list(tpl.notes)
        result.cross_coupled_with = {sig.nets[l] for l in tpl.cross}
        if tpl.has_pass_pairs:
            result.pass_pairs = _pass_pairs(ccc)

        # Fresh classification iterates outputs in sorted actual-name
        # order; rebuild the same dict insertion order.
        for out, gate_tpl in sorted(
                ((sig.nets[l], g) for l, g in tpl.gates)):
            result.gates[out] = _instantiate_gate(gate_tpl, out, sig)
        foot = None
        for out, dyn_tpl in sorted(
                ((sig.nets[l], d) for l, d in tpl.dynamic)):
            if foot is None:
                # Same for every dynamic node of the CCC; fresh code
                # recomputes it per output, order follows the device list.
                foot = [t.name for t in ccc.nmos() if t.gate in clock_nets]
                gate_of = {t.name: t.gate for t in ccc.transistors}
            precharge = sorted(sig.devices[s] for s in dyn_tpl.precharge)
            # Fresh code picks min over the pure-clock pull-up support,
            # which is exactly the precharge devices' gate nets.
            result.dynamic_nodes[out] = DynamicNode(
                net=out,
                precharge_devices=precharge,
                foot_devices=list(foot),
                eval_inputs={sig.nets[l] for l in dyn_tpl.eval_inputs},
                clock=min(gate_of[d] for d in precharge),
                keeper_devices=sorted(
                    sig.devices[s] for s in dyn_tpl.keeper),
            )
        return result
