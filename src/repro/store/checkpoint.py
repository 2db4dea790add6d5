"""Per-stage checkpoint keys: fingerprint exactly what each stage reads.

A :class:`CbvCampaign <repro.core.campaign.CbvCampaign>` run over a
:class:`DesignBundle <repro.core.campaign.DesignBundle>` consumes a
handful of independent inputs -- netlist topology, device geometry,
technology/corner parameters, the clock, check settings, pessimism
knobs, RTL intent.  Each flow stage reads a *subset*, and its checkpoint
key is a digest over that subset only (plus the schema version and the
stage name), so:

* resizing a device invalidates every electrical stage but nothing in
  the store for other designs;
* tightening :class:`PessimismSettings` re-runs timing verification
  alone -- recognition, extraction, and the check battery replay;
* changing a check threshold re-runs the battery alone;
* editing an RTL intent lambda re-proves logic equivalence alone.

Each stage's subset is its ``inputs`` in the stage table,
:data:`repro.core.stages.STAGES` (documented in DESIGN.md as part of the
checkpoint contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stages import STAGES, FlowStage
from repro.process.corners import Corner, corner_spec
from repro.store.artifact import CorruptArtifact, StoreMiss
from repro.store.fingerprint import (
    FINGERPRINT_SCHEMA_VERSION,
    _digest,
    fingerprint_callable,
    fingerprint_cell_geometry,
    fingerprint_cell_topology,
    fingerprint_value,
)


@dataclass
class DesignFingerprint:
    """Component digests of one bundle's inputs.

    ``components`` maps component name -> hex digest; ``combined`` is
    the digest of the whole map (the design's identity for reporting).
    """

    components: dict[str, str] = field(default_factory=dict)

    @property
    def combined(self) -> str:
        return _digest(["combined", FINGERPRINT_SCHEMA_VERSION,
                        sorted(self.components.items())])

    def subset(self, names: tuple[str, ...]) -> dict[str, str]:
        return {name: self.components[name] for name in names}


def design_fingerprint(bundle) -> DesignFingerprint:
    """Fingerprint every input component of a :class:`DesignBundle`."""
    rtl = sorted(
        (out, fingerprint_callable(fn),
         list(bundle.rtl_inputs.get(out, ())))
        for out, fn in bundle.rtl_intent.items())
    corners = {c.value: fingerprint_value(corner_spec(c)) for c in Corner}
    components = {
        "topology": fingerprint_cell_topology(bundle.cell),
        "geometry": fingerprint_cell_geometry(bundle.cell),
        "technology": fingerprint_value(
            [bundle.technology, sorted(corners.items())]),
        "clock": fingerprint_value(bundle.clock),
        "clock_hints": fingerprint_value(list(bundle.clock_hints)),
        "rtl": _digest(["rtl", rtl]),
        "functional": fingerprint_value(
            [[sorted(step.items()) for step in bundle.functional_vectors],
             list(bundle.functional_probes)]),
        "mode": fingerprint_value(
            [bool(bundle.use_layout), bundle.parasitics]),
        "settings": fingerprint_value(bundle.check_settings),
        "pessimism": fingerprint_value(
            [bundle.pessimism, sorted(bundle.false_through)]),
    }
    return DesignFingerprint(components=components)


def stage_key(fp: DesignFingerprint, stage: FlowStage, *,
              checks: tuple = (), timeout_s: float | None = None) -> str:
    """The store key for one stage's checkpoint.

    ``checks`` / ``timeout_s`` are the battery invocation parameters;
    they key only the circuit-verification stage (a different check
    list or budget may legitimately change its findings).  How the
    battery is split across fleet shards is not part of the key: the
    merged shards are byte-identical to one serial battery.
    """
    parts: list = ["stage", FINGERPRINT_SCHEMA_VERSION, stage.value,
                   sorted(fp.subset(STAGES[stage].inputs).items())]
    if stage is FlowStage.CIRCUIT_VERIFICATION:
        parts.append([[c.__module__, c.__qualname__, c.name] for c in checks])
        parts.append(repr(timeout_s))
    return _digest(parts)


def stage_keys(bundle, *, checks: tuple = (),
               timeout_s: float | None = None) -> dict[FlowStage, str]:
    """Every stage's checkpoint key for one bundle + battery invocation."""
    fp = design_fingerprint(bundle)
    return {stage: stage_key(fp, stage, checks=checks, timeout_s=timeout_s)
            for stage in STAGES}


def load_checkpoint(store, key: str, label: str, trace, valid):
    """The verified payload stored under ``key``, or ``None``.

    The one place campaign code (CBV stages, scenario shards, and the
    fleet's battery and scenario shards) reads checkpoints back.  A miss
    returns ``None``.  A blob that fails its checksum is quarantined by
    the store itself; a blob that decodes but makes ``valid(payload)``
    raise is quarantined here with :meth:`ArtifactStore.invalidate
    <repro.store.artifact.ArtifactStore.invalidate>`.  Either way the
    fault is logged as a ``checkpoint.corrupt`` trace event named
    ``label`` and the caller sees ``None`` -- it re-runs the work, or
    (for a fleet shard it cannot re-run) raises.
    """
    try:
        payload, _meta = store.get(key)
    except StoreMiss:
        return None
    except CorruptArtifact as exc:
        trace.emit("checkpoint.corrupt", name=label, detail=str(exc))
        return None
    try:
        valid(payload)
    except Exception as exc:  # noqa: BLE001 -- any shape fault degrades
        store.invalidate(key)
        trace.emit("checkpoint.corrupt", name=label,
                   detail=f"{key}: {type(exc).__name__}: {exc}")
        return None
    return payload


class CheckpointWriter:
    """Best-effort checkpoint writes with graceful ENOSPC degradation.

    The one place campaign code (CBV stages and scenario shards alike)
    persists checkpoints; :func:`load_checkpoint` is its reader.  The
    contract: **a checkpoint write is never fatal**.  A transient fault
    surfaces as a ``checkpoint.write_error`` trace event and the
    campaign moves on; a store that has entered
    ENOSPC degraded mode (:attr:`repro.store.ArtifactStore.degraded`)
    is announced exactly once per campaign with a ``store.degraded``
    trace event carrying a ``store_degraded`` counter, after which the
    campaign keeps running un-checkpointed -- later writes are skipped
    without further noise.  ``store.*`` and ``checkpoint.*`` events are
    both stripped from the canonical report form, so degradation never
    perturbs byte-identity.
    """

    def __init__(self, store, trace) -> None:
        self.store = store
        self.trace = trace
        self._degraded_noted = False

    def write(self, key: str, payload, meta: dict | None,
              label: str) -> bool:
        """Persist one checkpoint; True when the blob landed."""
        if self.store is None:
            return False
        if getattr(self.store, "degraded", False):
            self._note_degraded(label)
            return False
        try:
            landed = self.store.put(key, payload, meta=meta)
        except Exception as exc:  # noqa: BLE001 -- durability is
            # best-effort; a full disk must not fail the run
            if getattr(self.store, "degraded", False):
                self._note_degraded(label, exc)
            else:
                self.trace.emit("checkpoint.write_error", name=label,
                                detail=f"{type(exc).__name__}: {exc}")
            return False
        if landed is None:
            return False  # duplicate of a concurrent writer's blob
        self.trace.emit("checkpoint.write", name=label)
        return True

    def _note_degraded(self, label: str, exc: Exception | None = None) -> None:
        if self._degraded_noted:
            return
        self._degraded_noted = True
        detail = ("store entered ENOSPC degraded mode; campaign continues "
                  "un-checkpointed")
        if exc is not None:
            detail += f" ({type(exc).__name__}: {exc})"
        self.trace.emit("store.degraded", name=label, detail=detail,
                        counters={"store_degraded": 1.0})
