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
shard check events into the campaign trace in order.  A shard it cannot
load -- never written (a store degraded by a full disk drops every
write) or quarantined as corrupt -- it recomputes on the finalize
campaign's own check context, through :func:`run_battery_shard`, the
function the shard job runs.  The scenario rollup does the same with
:func:`repro.scenarios.runner.run_shard`.
"""

from __future__ import annotations

from repro.checks.registry import BatteryResult, run_battery
from repro.core.trace import CampaignTrace
from repro.fleet.jobs import FleetConfig, ShardSpec
from repro.store.artifact import ArtifactStore, StoreError
from repro.store.checkpoint import load_checkpoint
from repro.store.fingerprint import FINGERPRINT_SCHEMA_VERSION, _digest

#: The per-check trace events a shard persists for the merged log; the
#: battery envelope (battery_start / battery_end) is the merger's to
#: emit, exactly once.
CHECK_EVENTS = frozenset({"check_start", "check_end", "check_crash"})


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

    Findings, per-check seconds and crash records concatenate into one
    battery dict; :meth:`BatteryResult.from_dict` then derives the
    per-check slots and triage queues from it, exactly as ``run_battery``
    builds them.
    """
    findings: list[dict] = []
    per_check_seconds: dict[str, float] = {}
    crashes: dict[str, str] = {}
    for payload in payloads:
        part = payload["battery"]
        findings.extend(part.get("findings", []))
        for name, seconds in part.get("per_check_seconds", {}).items():
            per_check_seconds[name] = (
                per_check_seconds.get(name, 0.0) + seconds)
        crashes.update(part.get("crashes", {}))
    return BatteryResult.from_dict({"findings": findings,
                                    "per_check_seconds": per_check_seconds,
                                    "crashes": crashes})


def run_battery_shard(ctx, config: FleetConfig, shard: ShardSpec,
                      worker_id: str) -> dict:
    """One battery shard's payload: ``shard``'s slice of the check
    registry run over ``ctx``, as ``{battery, events}``.

    The shard job stores it under :func:`shard_store_key`; the finalize
    runner calls it for a shard whose blob it cannot load.  The slice
    records into its own trace, so the payload carries exactly this
    slice's check events -- no stage or checkpoint noise -- for the
    merge to replay.
    """
    sub = CampaignTrace(worker_id=worker_id)
    battery = run_battery(ctx, checks=config.checks[shard.lo:shard.hi],
                          timeout_s=config.timeout_s, trace=sub)
    return {"battery": battery.to_dict(),
            "events": [e.to_dict() for e in sub.events
                       if e.event in CHECK_EVENTS]}


def _check_battery_shard(payload) -> None:
    """Raise unless ``payload`` has a battery shard's shape."""
    if (not isinstance(payload, dict) or "battery" not in payload
            or not isinstance(payload.get("events"), list)):
        raise ValueError("payload shape is not a battery shard")


def assemble_scenario_report(store: ArtifactStore, spec,
                             shards: tuple[ShardSpec, ...],
                             trace: CampaignTrace):
    """Load every shard (in shard order) and build the rollup report.

    Shard order is sample-index order (contiguous ranges), so the
    assembled trace -- and therefore the canonical report JSON -- is
    byte-identical to the serial :class:`ScenarioCampaign`'s no matter
    which workers computed which shards.  A shard that is missing or
    fails validation (``trace`` receives its ``checkpoint.corrupt``
    event) is recomputed here with ``run_shard``.
    """
    # Imported lazily: repro.scenarios imports repro.fleet.jobs for the
    # shard partitioner, so a module-level import here would be a cycle.
    from repro.scenarios.report import assemble_report, check_scenario_shard
    from repro.scenarios.runner import run_shard
    from repro.scenarios.spec import shard_key

    payloads = []
    for s in sorted(shards, key=lambda s: s.index):
        payload = load_checkpoint(store, shard_key(spec, s.index, s.count),
                                  f"scenario shard {s.label()}", trace,
                                  check_scenario_shard)
        if payload is None:
            payload = run_shard(spec, s.lo, s.hi, worker_id=trace.worker_id)
        payloads.append(payload)
    return assemble_report(spec, payloads)


def make_battery_runner(store: ArtifactStore, circuit_key: str,
                        shards: tuple[ShardSpec, ...],
                        config: FleetConfig,
                        poisoned: tuple[dict, ...] = ()):
    """A ``battery_runner`` that assembles the sharded battery.

    ``circuit_key`` is the design's circuit-verification stage key,
    which every shard key derives from (see :func:`shard_store_key`).

    The returned callable matches the :meth:`CbvCampaign.run` contract:
    ``runner(ctx, trace) -> BatteryResult``.  The shard jobs already ran
    every check, so ``ctx`` only serves a shard whose blob the runner
    cannot load: it recomputes that shard's slice on ``ctx``.

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
        payloads = []
        for s in shards:
            payload = load_checkpoint(store, shard_store_key(circuit_key, s),
                                      f"battery shard {s.label()}", trace,
                                      _check_battery_shard)
            if payload is None:
                payload = run_battery_shard(ctx, config, s, trace.worker_id)
            payloads.append(payload)
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
