"""Deterministic merge of battery shards into one canonical battery.

A battery shard is one contiguous slice of the check registry run over
the full design context; its job stores ``{"battery": BatteryResult
dict, "events": check-event dicts}`` in the shared artifact store under
a key derived from the design's circuit-verification fingerprint plus
the shard coordinates.  Because the slices are contiguous and each
shard runs serially, concatenating shard findings -- and shard check
events -- in shard order reproduces a single-process serial battery
*exactly*; the merge below does only that concatenation plus the
re-derivation of the triage split, so the merged
:class:`~repro.checks.registry.BatteryResult` is byte-identical to
``run_battery(ctx, checks=ALL)`` and the finalize campaign's canonical
report matches a single-process run's.

The merge is installed into the finalize campaign as a
``battery_runner`` (see :meth:`CbvCampaign.run`): it loads every shard
through :func:`repro.store.checkpoint.load_checkpoint`, emits the
battery start/end envelope the serial runner would, and replays the
shard check events into the campaign trace in order.  A missing or
corrupt shard raises :class:`ShardMissing` -- inside the campaign's
stage isolation that degrades to a circuit-stage ERROR, not a crash.
"""

from __future__ import annotations

from repro.checks.base import Finding
from repro.checks.filters import filter_findings
from repro.checks.registry import BatteryResult
from repro.core.trace import CampaignTrace
from repro.fleet.jobs import FleetConfig, ShardSpec
from repro.store.artifact import ArtifactStore, StoreError
from repro.store.checkpoint import load_checkpoint
from repro.store.fingerprint import FINGERPRINT_SCHEMA_VERSION, _digest

#: The per-check trace events a shard persists for the merged log; the
#: battery envelope (battery_start / battery_end) is the merger's to
#: emit, exactly once.
CHECK_EVENTS = frozenset({"check_start", "check_end", "check_crash"})


class ShardMissing(StoreError):
    """A battery shard's blob is absent or failed verification."""


class PoisonShards(StoreError):
    """Battery shards were quarantined after repeatedly killing workers.

    Raised by the merged-battery runner inside the finalize campaign's
    circuit stage: stage isolation turns it into an ERROR-status stage
    whose summary names the quarantined shards, so the design ships a
    degraded report -- timing and the rest of the flow intact -- instead
    of being abandoned.
    """


def shard_store_key(circuit_key: str, shard: ShardSpec) -> str:
    """Store key of one shard's battery result.

    Keyed on the design's circuit-verification stage key (netlist,
    technology, clock, settings, check list, timeout -- see
    :func:`repro.store.checkpoint.stage_key`) plus the shard
    coordinates, so an input edit invalidates every shard and a shard
    layout change invalidates just the re-partitioned run.  The caller
    passes the key it already derived, so a shard key costs no
    fingerprint.
    """
    return _digest(["fleet-shard", FINGERPRINT_SCHEMA_VERSION,
                    circuit_key, shard.index, shard.count])


def merge_shard_batteries(payloads: list[dict]) -> BatteryResult:
    """Concatenate shard results (in shard order) into one battery.

    Findings, per-check slots, per-check seconds, and crash records all
    concatenate; the triage queues are re-derived from the merged
    findings stream, exactly as ``run_battery`` builds them.
    """
    findings: list[Finding] = []
    per_check: dict[str, list[Finding]] = {}
    per_check_seconds: dict[str, float] = {}
    crashes: dict[str, str] = {}
    for payload in payloads:
        part = BatteryResult.from_dict(payload["battery"])
        findings.extend(part.findings)
        for name, fs in part.per_check.items():
            per_check.setdefault(name, []).extend(fs)
        for name, seconds in part.per_check_seconds.items():
            per_check_seconds[name] = (
                per_check_seconds.get(name, 0.0) + seconds)
        crashes.update(part.crashes)
    return BatteryResult(
        findings=findings,
        queues=filter_findings(findings),
        per_check=per_check,
        per_check_seconds=per_check_seconds,
        crashes=crashes,
    )


def _check_battery_shard(payload) -> None:
    """Raise unless ``payload`` has a battery shard's shape."""
    if (not isinstance(payload, dict) or "battery" not in payload
            or not isinstance(payload.get("events"), list)):
        raise ValueError("payload shape is not a battery shard")


def _load_shard(store: ArtifactStore, key: str, label: str, trace,
                valid) -> dict:
    """One shard's payload; :class:`ShardMissing` when absent or bad.

    A wrong-shaped blob is quarantined on the way, so a retry recomputes
    it instead of re-tripping.
    """
    payload = load_checkpoint(store, key, label, trace, valid)
    if payload is None:
        raise ShardMissing(f"{label} is missing or corrupt")
    return payload


def assemble_scenario_report(store: ArtifactStore, spec,
                             shards: tuple[ShardSpec, ...],
                             trace: CampaignTrace):
    """Load every shard (in shard order) and build the rollup report.

    Shard order is sample-index order (contiguous ranges), so the
    assembled trace -- and therefore the canonical report JSON -- is
    byte-identical to the serial :class:`ScenarioCampaign`'s no matter
    which workers computed which shards.  A missing or wrong-shaped
    shard raises :class:`ShardMissing`; ``trace`` receives its
    ``checkpoint.corrupt`` event.
    """
    # Imported lazily: repro.scenarios imports repro.fleet.jobs for the
    # shard partitioner, so a module-level import here would be a cycle.
    from repro.scenarios.report import assemble_report, check_scenario_shard
    from repro.scenarios.spec import shard_key

    payloads = [
        _load_shard(store, shard_key(spec, s.index, s.count),
                    f"scenario shard {s.label()}", trace,
                    check_scenario_shard)
        for s in sorted(shards, key=lambda s: s.index)
    ]
    return assemble_report(spec, payloads)


def make_battery_runner(store: ArtifactStore, circuit_key: str,
                        shards: tuple[ShardSpec, ...],
                        config: FleetConfig,
                        poisoned: tuple[dict, ...] = ()):
    """A ``battery_runner`` that assembles the sharded battery.

    ``circuit_key`` is the design's circuit-verification stage key,
    which every shard key derives from (see :func:`shard_store_key`).

    The returned callable matches the :meth:`CbvCampaign.run` contract:
    ``runner(ctx, trace) -> BatteryResult``.  ``ctx`` is unused -- every
    check already ran in the shard jobs -- but kept so the campaign's
    circuit stage is oblivious to where its battery came from.

    ``poisoned`` carries the scheduler's quarantine records (see
    ``_Pool._poison_shard``) for shards that repeatedly killed their
    workers; when non-empty the runner raises :class:`PoisonShards`
    instead of assembling, degrading the circuit stage to ERROR with
    the quarantined shards named in its summary.
    """
    def runner(ctx, trace: CampaignTrace) -> BatteryResult:
        if poisoned:
            labels = ", ".join(sorted(str(p.get("label")) for p in poisoned))
            raise PoisonShards(
                f"{len(poisoned)} battery shard(s) quarantined as poison "
                f"(each repeatedly killed its worker): {labels}")
        payloads = [_load_shard(store, shard_store_key(circuit_key, s),
                                f"battery shard {s.label()}", trace,
                                _check_battery_shard)
                    for s in shards]
        trace.emit("battery_start", counters={
            "checks": float(len(config.checks)),
            "workers": float(len(shards)),
        })
        for payload in payloads:
            trace.replay([e for e in payload["events"]
                          if e.get("event") in CHECK_EVENTS])
        battery = merge_shard_batteries(payloads)
        trace.emit("battery_end",
                   wall_s=battery.total_seconds(),
                   counters={"findings": float(len(battery.findings)),
                             "crashes": float(len(battery.crashes))})
        return battery

    return runner
