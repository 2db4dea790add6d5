"""End-to-end fleet acceptance: canonical byte-identity vs single-process.

The fleet's whole contract is that distribution is invisible in the
results: a 2-worker sharded run of the seed suite must serialize -- in
canonical form -- byte-identically to ``CbvCampaign.run()`` in this
process.  These tests also pin the observability surface (metrics,
merged trace, Prometheus rendering) the benchmark and CI lean on.
"""

import tempfile

from repro.core.campaign import CbvCampaign
from repro.core.report import report_to_json
from repro.fleet import (
    SEED_SUITE,
    FleetConfig,
    FleetMetrics,
    render_prometheus,
    run_fleet,
)


def fast_config(tmp_path, **kw):
    kw.setdefault("store_dir", str(tmp_path / "store"))
    kw.setdefault("heartbeat_s", 0.1)
    kw.setdefault("fleet_timeout_s", 120.0)
    return FleetConfig(**kw)


def canonical_baselines():
    return {name: report_to_json(CbvCampaign(factory()).run(),
                                 canonical=True)
            for name, factory in SEED_SUITE.items()}


def test_two_worker_fleet_is_byte_identical_to_single_process(tmp_path):
    result = run_fleet(SEED_SUITE, workers=2, config=fast_config(tmp_path))
    assert result.failed == {}
    assert sorted(result.reports) == sorted(SEED_SUITE)
    for name, baseline in canonical_baselines().items():
        assert report_to_json(result.reports[name],
                              canonical=True) == baseline

    m = result.metrics
    assert m.designs_done == len(SEED_SUITE) and m.designs_failed == 0
    assert m.jobs_by_kind["prepare"] == len(SEED_SUITE)
    assert m.jobs_by_kind["finalize"] == len(SEED_SUITE)
    assert m.jobs_by_kind["battery"] >= len(SEED_SUITE)
    assert m.jobs_done == m.jobs_submitted
    assert m.workers_dead == 0

    events = [e.event for e in result.trace.events]
    assert "fleet_start" in events and "fleet_end" in events
    assert events.count("design_done") == len(SEED_SUITE)
    # Merge order is the stable (worker, seq) identity, so the merged
    # log is reproducible no matter how worker messages raced in.
    keys = [(e.worker, e.seq) for e in result.trace.events]
    assert keys == sorted(keys)
    assert {e.worker for e in result.trace.events} >= {"fleet", "w0", "w1"}


def test_single_worker_fleet_matches_too(tmp_path):
    result = run_fleet(SEED_SUITE, workers=1, config=fast_config(tmp_path))
    assert result.failed == {}
    assert result.metrics.steals == 0  # nobody to steal from
    for name, baseline in canonical_baselines().items():
        assert report_to_json(result.reports[name],
                              canonical=True) == baseline


def test_fleet_reuses_the_checkpoint_store(tmp_path):
    config = fast_config(tmp_path)
    first = run_fleet(SEED_SUITE, workers=2, config=config)
    second = run_fleet(SEED_SUITE, workers=2,
                       config=fast_config(tmp_path))  # same store_dir
    assert second.failed == {}
    for name in SEED_SUITE:
        assert (report_to_json(second.reports[name], canonical=True)
                == report_to_json(first.reports[name], canonical=True))


def test_each_run_gets_a_fresh_store(tmp_path, monkeypatch):
    # One FleetConfig() shared by two runs: neither may write its
    # temporary store back into it, or the second run would resume
    # from the first's checkpoints.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    config = FleetConfig(heartbeat_s=0.1, fleet_timeout_s=120.0)
    suite = {"adder8": SEED_SUITE["adder8"]}
    first = run_fleet(suite, workers=1, config=config)
    second = run_fleet(suite, workers=1, config=config)
    assert config.store_dir is None
    assert first.store_dir != second.store_dir
    hits = [sum(e.event == "checkpoint.hit" for e in r.trace.events)
            for r in (first, second)]
    assert hits[0] > 0 and hits[1] == hits[0]


def test_prometheus_rendering_is_well_formed():
    m = FleetMetrics(workers=2)
    m.record_job("battery", 1.5)
    m.record_job("battery", 0.5)
    m.record_job("prepare", 0.25)
    text = render_prometheus(m)
    assert "# HELP repro_fleet_workers " in text
    assert "# TYPE repro_fleet_steals counter" in text
    assert "repro_fleet_workers 2" in text
    assert 'repro_fleet_stage_wall_seconds{kind="battery"} 2.0' in text
    assert 'repro_fleet_jobs_done_by_kind{kind="prepare"} 1' in text
    assert text.endswith("\n")
    assert m.to_dict()["jobs_by_kind"] == {"battery": 2, "prepare": 1}
