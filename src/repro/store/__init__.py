"""Durable checkpoint/resume layer for the CBV campaign.

The paper's flow ran "continuously for several months" over a whole
chip.  PR 3 made a run survive its own tools crashing; this package
makes it survive the *process* dying: every completed flow stage is
serialized to a crash-safe on-disk :class:`ArtifactStore` under a key
derived from a canonical design fingerprint, and
``CbvCampaign.run(store=...)`` replays finished stages instead of
recomputing them.

* :mod:`repro.store.artifact` -- atomic (tmp + fsync + rename),
  checksum-verified blob store; corrupt blobs are quarantined, never
  trusted.
* :mod:`repro.store.fingerprint` -- canonical digests of netlist
  topology, device geometry, technology/corner parameters, and
  behavioural inputs.
* :mod:`repro.store.checkpoint` -- per-stage key derivation over the
  inputs the stage table (:data:`repro.core.stages.STAGES`) names, so
  an edit invalidates exactly the stages whose inputs changed, plus the
  one checkpoint reader and writer every campaign and fleet shard
  shares.
* :mod:`repro.store.verdicts` -- the cross-user verdict cache: sealed
  campaign reports keyed by (design fingerprint, battery invocation),
  so a re-submission of a verified design is answered with zero
  compute (see :mod:`repro.service`).
"""

from repro.store.artifact import (
    ArtifactStore,
    CorruptArtifact,
    StoreError,
    StoreMiss,
    StoreWriteError,
)
from repro.store.checkpoint import (
    CheckpointWriter,
    DesignFingerprint,
    design_fingerprint,
    load_checkpoint,
    stage_key,
    stage_keys,
)
from repro.store.fingerprint import (
    FINGERPRINT_SCHEMA_VERSION,
    fingerprint_callable,
    fingerprint_cell_geometry,
    fingerprint_cell_topology,
    fingerprint_value,
)
from repro.store.verdicts import (
    VERDICT_SCHEMA_VERSION,
    VerdictIndex,
    verdict_key,
)

__all__ = [
    "ArtifactStore",
    "CorruptArtifact",
    "StoreError",
    "StoreMiss",
    "StoreWriteError",
    "CheckpointWriter",
    "DesignFingerprint",
    "design_fingerprint",
    "load_checkpoint",
    "stage_key",
    "stage_keys",
    "FINGERPRINT_SCHEMA_VERSION",
    "fingerprint_callable",
    "fingerprint_cell_geometry",
    "fingerprint_cell_topology",
    "fingerprint_value",
    "VERDICT_SCHEMA_VERSION",
    "VerdictIndex",
    "verdict_key",
]
