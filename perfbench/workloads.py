"""The three workloads: what each runs, measures and checks.

``chip_cold_1k`` and ``chip_front_3k`` run one cold campaign per
request.  Each request runs in a child forked from the set-up process,
so every request starts from the same cold state without paying set-up
again; the set-up process starts no threads, which keeps the fork safe.
``service_closed`` drives an in-process service with one closed-loop
client.

The amount of work is a fixed function of ``--seconds``: enough whole
requests (or service blocks) of the workload's nominal duration on the
reference host to fill it, never a function of how fast this run
happens to go.  Every run with the same settings therefore does
identical work, and its exact counters can be compared.  Times are
reported in reference seconds (:mod:`perfbench.hostspeed`).
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import pickle
import random
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import designs, hostspeed, layers
from perfbench.spans import Tracer, load
from perfbench.stats import masked_digest, percentile, samples_beyond, sha256_text

from repro.core import CbvCampaign, FlowStage, report_to_json
from repro.perf import DesignCache


@dataclass(frozen=True)
class ChipSpec:
    target: int
    use_layout: bool
    until: FlowStage | None
    #: Nominal seconds of one request on the reference host.
    nominal_s: float


CHIP = {
    "chip_cold_1k": ChipSpec(1000, True, None, 20.0),
    "chip_front_3k": ChipSpec(3000, False, FlowStage.LOGIC_VERIFICATION, 10.5),
}

#: Nominal seconds of one service block (three fresh designs, one
#: repeat) on the reference host.
BLOCK_S = 0.8
#: 30 blocks give 120 latency samples, twelve beyond p90; with 100 the
#: p90's spread over five runs came near a third of its bound.
MIN_BLOCKS = 30
FRESH_PER_BLOCK = 3
#: Design index of the service's warm-up campaign; the measured designs
#: start after it.
WARMUP_INDEX = 0
#: Set-up probes per run, each in a fresh interpreter: one probe's
#: reference seconds vary by about a tenth.
SETUP_PROBES = 11


@dataclass
class Outcome:
    """What one run measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Exact work counters, compared against the committed reference.
    counters: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    spans: dict | None = None
    notes: dict = field(default_factory=dict)


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set size (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids() -> list[int]:
    pids = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children",
                      encoding="ascii") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except FileNotFoundError:
            continue  # the thread exited after the listing
    return pids


def in_child(fn):
    """Run ``fn()`` in a forked child; return its result or raise.

    The result travels back pickled through a pipe, which is read to
    the end before the child is reaped.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        code = 0
        try:
            payload = pickle.dumps(("ok", fn()))
        except BaseException:  # noqa: BLE001 -- reported to the parent
            payload = pickle.dumps(("error", traceback.format_exc()))
            code = 1
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"request child died (wait status {status})")
    kind, value = pickle.loads(data)
    if kind != "ok":
        raise RuntimeError(f"request child failed:\n{value}")
    return value


def _stage_events(events):
    for e in events:
        if e.get("event") == "stage_end":
            yield e


def report_facts(events, stages) -> dict[str, float]:
    """Per-layer facts one campaign report states about itself.

    ``events`` are the report's trace events as dicts; ``stages`` maps
    stage name -> its metrics.
    """
    facts: dict[str, float] = {}
    for e in _stage_events(events):
        key = f"core.stage.{e['name']}_s"
        facts[key] = facts.get(key, 0.0) + float(e.get("wall_s") or 0.0)
    for e in events:
        if e.get("event") == "check_end" and e["name"] in layers.TIMED_CHECKS:
            key = f"checks.{e['name']}_s"
            facts[key] = facts.get(key, 0.0) + float(e.get("wall_s") or 0.0)
    rec = stages.get("recognition", {})
    logic = stages.get("logic_verification", {})
    timing = stages.get("timing_verification", {})
    circuit = stages.get("circuit_verification", {})
    facts["checks.findings"] = circuit.get("findings", 0.0)
    facts["recognition.target_sweeps"] = (rec.get("target_sweeps", 0.0)
                                          + logic.get("target_sweeps", 0.0))
    facts["recognition.classify_hits"] = rec.get("classify_hits", 0.0)
    facts["recognition.classify_misses"] = rec.get("classify_misses", 0.0)
    facts["switchsim.solve_count"] = logic.get("solve_count", 0.0)
    facts["switchsim.ccc_evaluations"] = logic.get("ccc_evaluations", 0.0)
    facts["switchsim.vector_wasted_evals"] = logic.get("vector_wasted_evals", 0.0)
    facts["switchsim.packed_paths"] = logic.get("packed_paths", 0.0)
    facts["timing.arc_cache_hits"] = timing.get("arc_cache_hits", 0.0)
    facts["timing.arc_cache_misses"] = timing.get("arc_cache_misses", 0.0)
    return facts


def add_facts(total: dict, more: dict) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0.0) + v


def finish_ratios(facts: dict) -> None:
    """Turn summed numerators/denominators into the reported ratios."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    facts["recognition.classify_hit_ratio"] = ratio(
        facts.get("recognition.classify_hits", 0.0),
        facts.get("recognition.classify_hits", 0.0)
        + facts.get("recognition.classify_misses", 0.0))
    evals = facts.get("switchsim.ccc_evaluations", 0.0)
    facts["switchsim.useful_eval_ratio"] = (
        1.0 - ratio(facts.get("switchsim.vector_wasted_evals", 0.0), evals)
        if evals else 0.0)
    facts["timing.arc_cache_hit_ratio"] = ratio(
        facts.get("timing.arc_cache_hits", 0.0),
        facts.get("timing.arc_cache_hits", 0.0)
        + facts.get("timing.arc_cache_misses", 0.0))


def report_problems(report) -> list[str]:
    """Stage ERRORs and check crashes: tool faults, never verdicts."""
    problems = [f"stage {s.stage.value} errored: {s.summary}"
                for s in report.errored_stages()]
    for s in report.stages:
        crashes = s.metrics.get("check_crashes", 0.0)
        if crashes:
            problems.append(f"{int(crashes)} check crash(es) in "
                            f"{s.stage.value}")
    return problems


# -- set-up time -------------------------------------------------------------

def setup_probes(workload: str, seed: int, run_py: Path,
                 out: Outcome) -> list[float]:
    """Set-up reference seconds measured by fresh interpreters, in turn."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(run_py), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            out.problems.append(
                f"set-up probe failed: {proc.stderr.strip()[-400:]}")
            continue
        samples.append(float(lines[-1]))
    return samples


# -- chip workloads ----------------------------------------------------------

def _chip_request(bundle, spec: ChipSpec, tracer: Tracer | None) -> dict:
    """One cold campaign; runs in a forked child."""
    scope = contextlib.nullcontext()
    if tracer is not None:
        tracer.reset()
        scope = tracer.request(bundle.name)
    gc.collect()
    with scope:
        with hostspeed.Sampled() as timer:
            report = CbvCampaign(bundle).run(cache=DesignCache(),
                                             until=spec.until)
        text = report_to_json(report, canonical=True)
    return {
        "wall_s": timer.reference_s,
        "host_s": timer.host_s,
        "digest": sha256_text(text),
        "problems": report_problems(report),
        "facts": report_facts(report.trace.to_dicts(),
                              {s.stage.value: s.metrics for s in report.stages}),
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.dump() if tracer is not None else None,
    }


def run_chip(workload: str, seed: int, seconds: int, trace: bool,
             reference: dict, run_py: Path) -> Outcome:
    spec = CHIP[workload]
    bundle = designs.chip_bundle(spec.target, seed, spec.use_layout)
    out = Outcome()
    rounds = 1 if trace else math.ceil(seconds / spec.nominal_s)
    requests = [in_child(lambda: _chip_request(bundle, spec, None))
                for _ in range(rounds)]
    traced = None
    if trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = in_child(lambda: _chip_request(bundle, spec, tracer))
        finally:
            tracer.uninstall()
        requests.append(traced)
    good = []
    for req in requests:
        out.attempted += 1
        problems = list(req["problems"])
        if req["digest"] != reference["digest"]:
            problems.append(f"canonical report digest {req['digest']} != "
                            f"reference {reference['digest']}")
        for name, want in reference["counters"].items():
            got = req["facts"].get(name, 0.0)
            if got != want:
                problems.append(f"work differs: {name} = {got:g}, "
                                f"reference {want:g}")
        if problems:
            out.failed += 1
            out.problems.extend(problems)
        else:
            good.append(req)
    first = requests[0]["facts"]
    out.counters = {k: first.get(k, 0.0) for k in reference["counters"]}
    untraced = [r for r in good if r is not traced]
    if untraced:
        # One request is one campaign call: its latency, at any
        # percentile, and its throughput all restate that one time.
        wall = statistics.median(r["wall_s"] for r in untraced)
        out.metrics = {
            "wall_s": wall,
            "throughput_rps": 1.0 / wall,
            "latency_p50_s": wall,
            "latency_p90_s": wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        out.notes["wall_samples"] = [r["wall_s"] for r in untraced]
        out.notes["host_wall_samples"] = [r["host_s"] for r in untraced]
    if traced is not None:
        facts = dict(traced["facts"])
        finish_ratios(facts)
        if untraced:
            facts["trace.overhead_s"] = traced["wall_s"] - out.metrics["wall_s"]
        out.spans = traced["spans"]
        out.layer = layers.per_layer(out.spans, facts)
        out.notes["traced_wall_s"] = traced["wall_s"]
    else:
        probes = setup_probes(workload, seed, run_py, out)
        if probes:
            out.metrics["setup_s"] = statistics.median(probes)
        out.notes["setup_samples"] = probes
    return out


# -- service workload --------------------------------------------------------

def service_plan(seed: int, blocks: int) -> list[tuple[int, bool]]:
    """The closed loop's submissions: ``(design index, is_repeat)``.

    Each block submits three fresh designs, then repeats one design that
    sealed before the block's last fresh submission, so its verdict is
    cached and nothing can coalesce.  The seed orders the fresh designs
    and picks the repeats.
    """
    rng = random.Random(seed)
    fresh = list(range(WARMUP_INDEX + 1,
                       WARMUP_INDEX + 1 + FRESH_PER_BLOCK * blocks))
    rng.shuffle(fresh)
    sealed = [WARMUP_INDEX]
    plan = []
    for b in range(blocks):
        block = fresh[b * FRESH_PER_BLOCK:(b + 1) * FRESH_PER_BLOCK]
        for index in block:
            plan.append((index, False))
            sealed.append(index)
        plan.append((rng.choice(sealed[:-1]), True))
    return plan


class ServiceSession:
    """One in-process service with one fleet worker and a fresh store."""

    def __init__(self, store_dir: Path) -> None:
        from repro.fleet.jobs import FleetConfig
        from repro.service import ServiceConfig, ServiceThread

        self.handle = ServiceThread(ServiceConfig(
            workers=1, fleet=FleetConfig(store_dir=str(store_dir))))
        self.client = None

    def start(self) -> None:
        from repro.service import ServiceClient

        host, port = self.handle.start()
        self.client = ServiceClient(host, port)
        sub = self.client.submit(designs.variant_ref(WARMUP_INDEX))
        self.client.report(sub["campaign"], canonical=True)

    def stop(self) -> None:
        self.handle.stop()
        if any(t.name == "repro-service" and t.is_alive()
               for t in threading.enumerate()):
            raise RuntimeError("service thread did not stop")
        if child_pids():
            raise RuntimeError("fleet worker did not exit")


def closed_loop(session: ServiceSession, plan, tracer: Tracer | None):
    """Submit the plan one request at a time, a block at a time.

    Returns per-request rows, each with its host latency and the loop
    timings taken just before and after its block (nothing is in flight
    then, so they measure the host alone), and the measured host seconds
    of each block.
    """
    from repro.service import ServiceError

    client = session.client

    def request(ref: str) -> tuple[dict, str]:
        sub = client.submit(ref)
        return sub, client.report(sub["campaign"], canonical=True)

    if tracer is not None:
        request = tracer.span_wrapper("service.request", request)
    per_block = FRESH_PER_BLOCK + 1
    rows, blocks = [], []
    timings = hostspeed.speed()
    for first in range(0, len(plan), per_block):
        block_rows = []
        start = time.perf_counter()
        for i in range(first, min(first + per_block, len(plan))):
            index, repeat = plan[i]
            row = {"index": index, "repeat": repeat}
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.request(f"r{i}"):
                        sub, text = request(designs.variant_ref(index))
                else:
                    sub, text = request(designs.variant_ref(index))
            except ServiceError as exc:
                row["error"] = f"{exc.code}: {exc}"
            else:
                row.update(campaign=sub["campaign"], cached=bool(sub["cached"]),
                           coalesced=bool(sub["coalesced"]),
                           digest=sha256_text(text), text=text)
            row["latency_s"] = time.perf_counter() - t0
            block_rows.append(row)
        host_s = time.perf_counter() - start
        after = hostspeed.speed()
        for row in block_rows:
            row["timings"] = timings + after
        blocks.append({"host_s": host_s, "timings": timings + after})
        rows.extend(block_rows)
        timings = after
    return rows, blocks


def _stream_facts(events: list[dict]) -> dict:
    """Job count, admission wait and stage time of one fresh campaign."""
    times = {}
    jobs = 0
    for e in events:
        kind = e.get("event")
        if kind == "service.admitted":
            times["admitted"] = e["t_s"]
        elif kind == "service.progress" and e.get("status") == "launched":
            times["launched"] = e["t_s"]
        elif kind == "service.progress" and e.get("status") in ("prepare",
                                                                "battery"):
            jobs += 1
        elif kind == "service.sealed":
            jobs += 1  # the finalize job, which seals the report
    return {"jobs": jobs,
            "admit_wait_s": times.get("launched", 0.0) - times.get("admitted", 0.0)}


def check_service(rows, session: ServiceSession, reference: dict,
                  out: Outcome) -> dict:
    """Correctness and work identity of one closed loop; returns facts."""
    client = session.client
    status = client.status()
    first_digest: dict[int, str] = {}
    facts: dict[str, float] = {}
    admit_waits, fresh_latency, stage_time = [], 0.0, 0.0
    hit_latencies = []
    per_campaign: dict[str, set] = {"jobs": set(), "findings": set()}
    for row in rows:
        out.attempted += 1
        problems = []
        if "error" in row:
            problems.append(f"submission of design {row['index']} failed: "
                            f"{row['error']}")
        elif row["coalesced"] or row["cached"] != row["repeat"]:
            problems.append(f"design {row['index']}: cached={row['cached']} "
                            f"coalesced={row['coalesced']}, expected "
                            f"cached={row['repeat']}")
        else:
            name = designs.variant_name(row["index"])
            want = reference["masked_digest"]
            if masked_digest(row["text"], name) != want:
                problems.append(f"design {row['index']}: canonical report "
                                f"differs from the reference")
            earlier = first_digest.setdefault(row["index"], row["digest"])
            if earlier != row["digest"]:
                problems.append(f"design {row['index']}: repeat report "
                                f"differs from the original")
            if row["cached"]:
                hit_latencies.append(row["latency_s"])
            else:
                events = list(client.events(row["campaign"], follow=False))
                stream = _stream_facts(events)
                per_campaign["jobs"].add(stream["jobs"])
                admit_waits.append(stream["admit_wait_s"])
                fresh_latency += row["latency_s"]
                report_events = [e for e in events
                                 if not e["event"].startswith("service.")]
                stage_time += sum(float(e.get("wall_s") or 0.0)
                                  for e in _stage_events(report_events))
                stages = {e["name"]: e.get("counters", {})
                          for e in _stage_events(report_events)}
                one = report_facts(report_events, stages)
                per_campaign["findings"].add(one["checks.findings"])
                add_facts(facts, one)
        if problems:
            out.failed += 1
            out.problems.extend(problems)
    metrics = status["metrics"]
    facts["fleet.jobs_per_campaign"] = (min(per_campaign["jobs"])
                                        if per_campaign["jobs"] else 0.0)
    facts["service.coalesced"] = float(metrics["coalesced"])
    facts["service.verdict_hit_ratio"] = (
        sum(1 for r in rows if r.get("cached")) / len(rows))
    facts["service.cache_hit_latency_s"] = (
        statistics.median(hit_latencies) if hit_latencies else 0.0)
    facts["service.admit_wait_s"] = (statistics.median(admit_waits)
                                     if admit_waits else 0.0)
    facts["service.useful_ratio"] = (stage_time / fresh_latency
                                     if fresh_latency else 0.0)
    finish_ratios(facts)
    counters = {
        "service.verdict_hits": float(sum(1 for r in rows if r.get("cached"))),
        "service.coalesced": float(metrics["coalesced"]),
        "fleet.jobs_per_campaign": facts["fleet.jobs_per_campaign"],
        "checks.findings_per_campaign": (min(per_campaign["findings"])
                                         if per_campaign["findings"] else 0.0),
    }
    want = dict(reference["counters"], **{
        "service.verdict_hits": float(sum(1 for r in rows if r["repeat"]))})
    differs = [f"work differs: {name} = {value:g}, expected {want[name]:g}"
               for name, value in counters.items() if value != want[name]]
    differs += [f"work differs between campaigns: {name} "
                f"{sorted(per_campaign[name])}"
                for name in ("jobs", "findings") if len(per_campaign[name]) > 1]
    if differs:
        # A run that did different work is failed as a whole.
        out.problems.extend(differs)
        out.failed = out.attempted
    out.counters = counters
    facts["store.total_bytes"] = float(status["store"]["total_bytes"])
    return facts


def direct_digests(rows, out: Outcome) -> None:
    """The byte-identity contract: service report == direct run's report."""
    seen = set()
    for row in rows:
        if "digest" not in row or row["index"] in seen:
            continue
        seen.add(row["index"])
        report = CbvCampaign(designs.variant_bundle(row["index"])).run()
        direct = sha256_text(report_to_json(report, canonical=True))
        if direct != row["digest"]:
            out.failed = min(out.attempted, out.failed + 1)
            out.problems.append(f"design {row['index']}: service report "
                                f"differs from a direct CbvCampaign.run()")


def _loop_metrics(rows, blocks) -> dict[str, float]:
    """Throughput and latency of one closed loop, in reference seconds."""
    ok = [r for r in rows if "digest" in r]
    latencies = [hostspeed.reference_seconds(r["latency_s"], r["timings"])
                 for r in ok]
    elapsed = sum(hostspeed.reference_seconds(b["host_s"], b["timings"])
                  for b in blocks)
    return {
        "throughput_rps": len(ok) / elapsed,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "wall_s": elapsed / len(blocks),
    }


def run_service(seed: int, seconds: int, trace: bool, reference: dict,
                run_py: Path, work: Path) -> Outcome:
    out = Outcome()
    blocks = max(MIN_BLOCKS, math.ceil(seconds / BLOCK_S))
    plan = service_plan(seed, blocks)
    session = ServiceSession(work / "store")
    session.start()
    rows, measured = closed_loop(session, plan, None)
    rss = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in child_pids())
    check_service(rows, session, reference, out)
    session.stop()
    out.metrics = _loop_metrics(rows, measured)
    out.metrics["peak_rss_mb"] = rss
    latencies = [r["latency_s"] for r in rows if "digest" in r]
    out.notes["samples"] = len(latencies)
    out.notes["samples_beyond_p90"] = samples_beyond(latencies, 90)
    out.notes["host_latency_p50_s"] = percentile(latencies, 50)
    if trace:
        out.layer, out.spans = _traced_service(plan, reference, work, out)
        out.layer["trace.overhead_s"] = (out.notes["traced_wall_s"]
                                         - out.metrics["wall_s"])
    else:
        direct_digests(rows, out)
        probes = setup_probes("service_closed", seed, run_py, out)
        if probes:
            out.metrics["setup_s"] = statistics.median(probes)
        out.notes["setup_samples"] = probes
    return out


def _traced_service(plan, reference: dict, work: Path, out: Outcome):
    """The same closed loop on a second, traced service."""
    from repro.fleet import scheduler, worker

    tracer = Tracer()
    spans_dir = work / "spans"
    spans_dir.mkdir()
    layers.install(tracer)
    worker_main, execute_job = worker.worker_main, worker.execute_job

    def traced_worker(*args, **kwargs):
        tracer.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.write(spans_dir / f"worker-{os.getpid()}.json")

    def traced_job(job, *args, **kwargs):
        with tracer.request(job.design):
            return execute_job(job, *args, **kwargs)

    tracer.replace(scheduler, "worker_main", traced_worker)
    tracer.replace(worker, "execute_job",
                tracer.span_wrapper("fleet.job", traced_job))
    try:
        session = ServiceSession(work / "traced-store")
        session.start()
        tracer.reset()
        before = session.client.status()["store"]["total_bytes"]
        rows, measured = closed_loop(session, plan, tracer)
        traced = Outcome()
        facts = check_service(rows, session, reference, traced)
        session.stop()
    finally:
        tracer.uninstall()
    out.attempted += traced.attempted
    out.failed += traced.failed
    out.problems.extend(traced.problems)
    out.notes["traced_wall_s"] = _loop_metrics(rows, measured)["wall_s"]
    # The worker's spans and counts of the warm-up campaign are dropped;
    # this process forgot its own when the warm-up sealed.
    campaigns = {r["campaign"] for r in rows if "campaign" in r}
    data = load([tracer.dump(), *sorted(spans_dir.glob("worker-*.json"))])
    for kind in ("spans", "counts"):
        data[kind] = [s for s in data[kind]
                      if s["pid"] == os.getpid() or s["rid"] in campaigns]
    facts["store.bytes"] = facts["store.total_bytes"] - before
    return layers.per_layer(data, facts), data
