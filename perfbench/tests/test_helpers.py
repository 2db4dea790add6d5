"""Unit tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import signal
import statistics
import sys
import time
import types

import pytest

from perfbench import hostspeed
from perfbench.spans import Tracer, count_totals, inclusive_times, load, self_times
from perfbench.stats import (
    masked_digest,
    percentile,
    quartile_spread,
    samples_beyond,
    sha256_text,
)


# -- percentiles ---------------------------------------------------------------

def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 90) == pytest.approx(3.7)


def test_percentile_of_one_sample_is_that_sample():
    assert percentile([0.25], 90) == 0.25


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_hundred_samples_leave_ten_beyond_p90():
    values = [float(i) for i in range(100)]
    assert samples_beyond(values, 90) == 10
    assert samples_beyond(values[:91], 90) == 9


def test_quartile_spread_uses_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)


# -- reference seconds -----------------------------------------------------------

def test_reference_seconds_scale_by_the_mean_loop_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.reference_seconds(10.0, [ref, ref]) == pytest.approx(10.0)
    assert hostspeed.reference_seconds(10.0, [2 * ref]) == pytest.approx(5.0)
    # Half the time at the reference speed, half at half of it.
    assert hostspeed.reference_seconds(10.0, [ref, 2 * ref]) == pytest.approx(7.5)
    with pytest.raises(ValueError):
        hostspeed.reference_seconds(1.0, [])


def test_sampled_times_the_loop_during_a_call_and_leaves_it_out():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampled(period_s=0.05) as timer:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    during = timer.timings[2:-2]
    assert len(during) >= 2
    assert timer.host_s < 0.3 - sum(during) + 0.05
    assert timer.reference_s == pytest.approx(
        hostspeed.reference_seconds(timer.host_s, timer.timings))


# -- digests -------------------------------------------------------------------

def test_sha256_text_is_the_hex_digest_of_utf8():
    assert sha256_text("") == ("e3b0c44298fc1c149afbf4c8996fb924"
                               "27ae41e4649b934ca495991b7852b855")


def test_masked_digest_ignores_only_the_design_name():
    a = '{"bundle_name": "pbv00001", "x": 1}'
    b = '{"bundle_name": "pbv00002", "x": 1}'
    c = '{"bundle_name": "pbv00002", "x": 2}'
    assert masked_digest(a, "pbv00001") == masked_digest(b, "pbv00002")
    assert masked_digest(b, "pbv00002") != masked_digest(c, "pbv00002")
    with pytest.raises(ValueError):
        masked_digest(a, "")


# -- span self time --------------------------------------------------------------

def _span(sid, parent, name, start, end, pid=1):
    return {"pid": pid, "id": sid, "parent": parent, "name": name,
            "start": start, "end": end, "rid": None, "attrs": None}


def test_self_time_subtracts_the_children_it_covers():
    spans = [_span(1, 0, "a", 0.0, 10.0),
             _span(2, 1, "b", 1.0, 3.0),
             _span(3, 1, "c", 5.0, 9.0),
             _span(4, 3, "d", 6.0, 7.0)]
    own = self_times(spans)
    assert own[(1, 1)] == pytest.approx(4.0)
    assert own[(1, 2)] == pytest.approx(2.0)
    assert own[(1, 3)] == pytest.approx(3.0)
    assert own[(1, 4)] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [_span(1, 0, "a", 0.0, 10.0),
             _span(2, 1, "b", 2.0, 6.0),
             _span(3, 1, "b", 4.0, 8.0),
             _span(4, 1, "c", 9.0, 12.0)]
    assert self_times(spans)[(1, 1)] == pytest.approx(3.0)


def test_self_time_keeps_processes_apart():
    spans = [_span(1, 0, "a", 0.0, 10.0, pid=1),
             _span(2, 1, "b", 0.0, 10.0, pid=2)]
    assert self_times(spans)[(1, 1)] == pytest.approx(10.0)


def test_inclusive_time_counts_nested_same_name_spans_once():
    spans = [_span(1, 0, "settle", 0.0, 4.0),
             _span(2, 1, "settle", 1.0, 3.0),
             _span(3, 2, "leaf", 1.5, 2.0),
             _span(4, 0, "settle", 5.0, 6.0)]
    assert inclusive_times(spans) == {"settle": pytest.approx(5.0),
                                      "leaf": pytest.approx(0.5)}


# -- the tracer --------------------------------------------------------------------

def test_tracer_records_parents_requests_and_counts():
    tracer = Tracer()
    leaf = tracer.count_wrapper("leaf", lambda x: x + 1)
    inner = tracer.span_wrapper("inner", lambda: leaf(1) + leaf(2),
                                attrs=lambda result: {"result": result})
    outer = tracer.span_wrapper("outer", lambda: inner())
    with tracer.request("r1"):
        assert outer() == 5
    leaf(3)
    data = tracer.dump()
    by_request = {c["rid"]: c["n"] for c in data["counts"]}
    assert by_request == {"r1": 2, None: 1}
    assert count_totals(data["counts"]) == {"leaf": 3}
    by_name = {s["name"]: s for s in data["spans"]}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] == 0
    assert by_name["inner"]["attrs"] == {"result": 5}
    assert {s["rid"] for s in data["spans"]} == {"r1"}
    tracer.reset()
    assert tracer.dump() == {"counts": [], "spans": []}


def test_tracer_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span_wrapper("boom", boom)()
    assert [s["name"] for s in tracer.dump()["spans"]] == ["boom"]


def test_patch_function_reaches_by_name_imports_and_uninstalls():
    def original():
        return "original"

    home = types.ModuleType("perfbench._test_home")
    caller = types.ModuleType("perfbench._test_caller")
    home.entry = caller.entry = original
    sys.modules[home.__name__] = home
    sys.modules[caller.__name__] = caller
    try:
        tracer = Tracer()
        wrapper = tracer.span_wrapper("entry", original)
        assert tracer.patch_function(original, wrapper) == 2
        assert caller.entry() == "original"
        assert len(tracer.dump()["spans"]) == 1
        tracer.uninstall()
        assert home.entry is original and caller.entry is original
    finally:
        del sys.modules[home.__name__], sys.modules[caller.__name__]


def test_load_merges_span_files_and_counts(tmp_path):
    first = {"counts": [{"pid": 1, "rid": "a", "name": "leaf", "n": 2}],
             "spans": [_span(1, 0, "a", 0.0, 1.0)]}
    second = tmp_path / "worker.json"
    second.write_text('{"counts": [{"pid": 2, "rid": "b", "name": "leaf", '
                      '"n": 3}], "spans": []}')
    merged = load([first, second])
    assert count_totals(merged["counts"]) == {"leaf": 5}
    assert {c["rid"] for c in merged["counts"]} == {"a", "b"}
    assert len(merged["spans"]) == 1


# -- the service workload's submission plan ------------------------------------------

def test_service_plan_repeats_only_designs_sealed_a_request_earlier():
    from perfbench.workloads import FRESH_PER_BLOCK, WARMUP_INDEX, service_plan

    plan = service_plan(seed=7, blocks=30)
    assert plan == service_plan(seed=7, blocks=30)
    assert plan != service_plan(seed=8, blocks=30)
    fresh = [index for index, repeat in plan if not repeat]
    assert len(fresh) == len(set(fresh)) == FRESH_PER_BLOCK * 30
    assert WARMUP_INDEX not in fresh
    sealed = [WARMUP_INDEX]
    for position, (index, repeat) in enumerate(plan):
        assert repeat == (position % (FRESH_PER_BLOCK + 1) == FRESH_PER_BLOCK)
        if repeat:
            assert index in sealed[:-1]
        else:
            sealed.append(index)


def test_every_benchmark_metric_has_one_definition():
    import json
    from pathlib import Path

    from perfbench.layers import LAYER_METRICS

    bench = json.loads((Path(__file__).resolve().parents[2]
                        / "BENCHMARK.json").read_text())
    names = [name for name, _source in LAYER_METRICS]
    assert len(names) == len(set(names))
    assert names == [m["name"] for m in bench["per_layer"]]
