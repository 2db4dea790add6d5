"""Which entry points the traced run wraps, and the per-layer metrics.

Layers are the ``repro`` packages.  A ``*_s`` metric is the inclusive
host time spent in calls to one entry point; ``*_calls`` and plain
counts are exact.  Metrics marked ``facts`` are read from what the
program already reports (stage counters, ``check_end`` wall times, the
service's ``service.*`` stream events and ``status`` op) rather than
from the benchmark's own spans.
"""

from __future__ import annotations

import importlib

from perfbench.spans import Tracer, count_totals, inclusive_times

SPAN, COUNT = "span", "count"


def _arcs(graph) -> dict:
    return {"arcs": len(graph.arcs)}


#: (span name, module, attribute, mode[, attrs of the result]).
#: Hot leaves are counted, not spanned: ``on_resistance`` runs millions
#: of times per campaign.
ENTRY_POINTS = (
    ("netlist.flatten", "repro.netlist.flatten", "flatten", SPAN),
    ("recognition.recognize", "repro.recognition.recognizer", "recognize", SPAN),
    ("recognition.conduction_paths", "repro.recognition.conduction",
     "conduction_paths", SPAN),
    ("recognition.storage_nodes", "repro.recognition.latches",
     "find_storage_nodes", SPAN),
    ("recognition.classify", "repro.recognition.families", "classify_ccc", SPAN),
    ("recognition.classify", "repro.recognition.memo",
     "ClassificationMemo.classify", SPAN),
    ("switchsim.table_build", "repro.switchsim.tables",
     "PackedSwitchTables.build", SPAN),
    ("switchsim.settle", "repro.switchsim.engine", "SwitchSimulator.settle", SPAN),
    ("switchsim.settle", "repro.switchsim.vector",
     "VectorSwitchSimulator.settle", SPAN),
    ("layout.macrocell", "repro.layout.macrocell", "generate_macrocell", SPAN),
    ("layout.antenna", "repro.layout.antenna_geom", "antenna_geometry", SPAN),
    ("extraction.extract", "repro.extraction.extract", "extract_macrocell", SPAN),
    ("checks.make_context", "repro.checks.driver", "make_context", SPAN),
    ("checks.battery", "repro.checks.registry", "run_battery", SPAN),
    ("timing.build_graph", "repro.timing.graph", "build_timing_graph", SPAN, _arcs),
    ("timing.drive_bounds", "repro.timing.delay",
     "ArcDelayCalculator.drive_bounds", COUNT),
    ("timing.verify", "repro.timing.analyzer", "TimingAnalyzer.verify", SPAN),
    ("process.on_resistance", "repro.process.mosfet",
     "MosfetModel.on_resistance", COUNT),
    ("process.ids", "repro.process.mosfet", "MosfetModel.ids", COUNT),
    ("core.campaign", "repro.core.campaign", "CbvCampaign.run", SPAN),
    ("core.canonical_json", "repro.core.report", "report_to_json", SPAN),
    ("store.put", "repro.store.artifact", "ArtifactStore.put", SPAN),
    ("store.get", "repro.store.artifact", "ArtifactStore.get", SPAN),
    ("store.fingerprint", "repro.store.checkpoint", "design_fingerprint", SPAN),
    ("fleet.prepare", "repro.fleet.worker", "_run_prepare", SPAN),
    ("fleet.battery_shard", "repro.fleet.worker", "_run_battery_shard", SPAN),
    ("fleet.finalize", "repro.fleet.worker", "_run_finalize", SPAN),
)

STAGES = ("schematic", "recognition", "layout", "extraction",
          "logic_verification", "circuit_verification", "timing_verification")
#: Checks whose ``check_end`` wall time is reported on its own.
TIMED_CHECKS = ("timing_setup_race", "beta_ratio", "writability")

#: (name, source) of every per-layer metric, in report order; units and
#: directions are in ``BENCHMARK.json``.  ``source`` is a span name
#: (inclusive seconds), ``("calls", span)`` (span count), ``("count",
#: leaf)`` (a counted leaf), ``("max", span, attr)`` or ``"facts"``.
LAYER_METRICS = (
    ("timing.build_graph_s", "timing.build_graph"),
    ("timing.build_graph_calls", ("calls", "timing.build_graph")),
    ("timing.drive_bounds_calls", ("count", "timing.drive_bounds")),
    ("timing.arc_cache_hit_ratio", "facts"),
    ("timing.verify_s", "timing.verify"),
    ("timing.arcs", ("max", "timing.build_graph", "arcs")),
    ("process.on_resistance_calls", ("count", "process.on_resistance")),
    ("process.ids_calls", ("count", "process.ids")),
    ("checks.battery_s", "checks.battery"),
    ("checks.make_context_s", "checks.make_context"),
    *((f"checks.{check}_s", "facts") for check in TIMED_CHECKS),
    ("checks.findings", "facts"),
    ("recognition.recognize_s", "recognition.recognize"),
    ("recognition.conduction_paths_s", "recognition.conduction_paths"),
    ("recognition.conduction_paths_calls", ("calls", "recognition.conduction_paths")),
    ("recognition.storage_nodes_s", "recognition.storage_nodes"),
    ("recognition.classify_s", "recognition.classify"),
    ("recognition.classify_hit_ratio", "facts"),
    ("recognition.target_sweeps", "facts"),
    ("switchsim.table_build_s", "switchsim.table_build"),
    ("switchsim.settle_s", "switchsim.settle"),
    ("switchsim.solve_count", "facts"),
    ("switchsim.useful_eval_ratio", "facts"),
    ("switchsim.packed_paths", "facts"),
    ("netlist.flatten_s", "netlist.flatten"),
    ("layout.macrocell_s", "layout.macrocell"),
    ("layout.antenna_s", "layout.antenna"),
    ("extraction.extract_s", "extraction.extract"),
    *((f"core.stage.{stage}_s", "facts") for stage in STAGES),
    ("core.canonical_json_s", "core.canonical_json"),
    ("store.puts", ("calls", "store.put")),
    ("store.put_s", "store.put"),
    ("store.gets", ("calls", "store.get")),
    ("store.get_s", "store.get"),
    ("store.bytes", "facts"),
    ("store.fingerprint_s", "store.fingerprint"),
    ("fleet.jobs_per_campaign", "facts"),
    ("fleet.prepare_s", "fleet.prepare"),
    ("fleet.battery_shard_s", "fleet.battery_shard"),
    ("fleet.finalize_s", "fleet.finalize"),
    ("service.admit_wait_s", "facts"),
    ("service.useful_ratio", "facts"),
    ("service.verdict_hit_ratio", "facts"),
    ("service.cache_hit_latency_s", "facts"),
    ("service.coalesced", "facts"),
    ("trace.overhead_s", "facts"),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name), meth
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every entry point, in every namespace its callers use."""
    for name, module, attr, mode, *attrs in ENTRY_POINTS:
        owner, member = _resolve(module, attr)

        def make(fn, name=name, mode=mode, attrs=attrs):
            if mode == COUNT:
                return tracer.count_wrapper(name, fn)
            return tracer.span_wrapper(name, fn, attrs[0] if attrs else None)

        if isinstance(owner, type):
            tracer.patch_method(owner, member, make)
        else:
            original = getattr(owner, member)
            if tracer.patch_function(original, make(original)) == 0:
                raise RuntimeError(f"{module}.{attr} is not reachable")


def per_layer(data: dict, facts: dict) -> dict[str, float]:
    """Every per-layer metric from merged spans/counts and program facts."""
    spans = data["spans"]
    inclusive = inclusive_times(spans)
    counts = count_totals(data["counts"])
    calls: dict[str, int] = {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    out: dict[str, float] = {}
    for name, source in LAYER_METRICS:
        if source == "facts":
            out[name] = float(facts.get(name, 0.0))
        elif isinstance(source, str):
            out[name] = inclusive.get(source, 0.0)
        elif source[0] == "calls":
            out[name] = float(calls.get(source[1], 0))
        elif source[0] == "count":
            out[name] = float(counts.get(source[1], 0))
        else:  # ("max", span, attr)
            out[name] = float(max(((s["attrs"] or {}).get(source[2], 0)
                                   for s in spans if s["name"] == source[1]),
                                  default=0))
    return out
