"""End-to-end service tests over the real wire protocol.

One module-scoped service (2 fleet workers, private store) backs the
whole file; tests that need isolation (the cross-process cache test,
the backpressure test) use their own tenants or their own service so
the shared counters stay interpretable as deltas.

The two pinned contracts from the service design:

* the canonical JSON fetched through the service is byte-identical to
  a direct single-process ``CbvCampaign.run`` of the same bundle;
* a duplicate submission is answered from the verdict cache (or
  coalesced onto the in-flight campaign) with zero battery executions.
"""

import multiprocessing
import threading
import time

import pytest

from repro.core.campaign import CbvCampaign
from repro.core.report import report_to_json
from repro.fleet.jobs import FleetConfig, resolve_bundle
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    variant_ref,
)
from repro.service.suite import VARIANT_COUNT, variant_bundle
from repro.store.verdicts import VerdictIndex

ALPHA_REF = "repro.fleet.suite:alpha_slice"


def failing_bundle():
    """Resolves in the service process, raises inside fleet workers."""
    if multiprocessing.current_process().name != "MainProcess":
        raise RuntimeError("injected worker failure")
    return variant_bundle(VARIANT_COUNT - 1)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("service-store"))


@pytest.fixture(scope="module")
def service(store_dir):
    handle = ServiceThread(ServiceConfig(
        workers=2, max_inflight=4,
        fleet=FleetConfig(store_dir=store_dir)))
    handle.start()
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.config.host, service.service.port)


@pytest.fixture(scope="module")
def alpha_campaign(client):
    """alpha_slice submitted once; later tests reuse the sealed id."""
    sub = client.submit(ALPHA_REF, tenant="seed", name="alpha_slice")
    assert sub["ok"] and not sub["cached"] and not sub["coalesced"]
    assert client.wait(sub["campaign"]) == "sealed"
    return sub["campaign"]


class TestByteIdentity:
    def test_canonical_report_matches_direct_run(self, client,
                                                 alpha_campaign):
        via_service = client.report(alpha_campaign, canonical=True)
        direct = report_to_json(
            CbvCampaign(resolve_bundle(ALPHA_REF)).run(), canonical=True)
        assert via_service == direct

    def test_full_report_round_trips(self, client, alpha_campaign):
        report = client.report(alpha_campaign, canonical=False)
        assert report["design"] == "alpha_slice"
        assert report["stages"]
        assert report["trace"]


class TestVerdictCache:
    def test_resubmission_is_a_cache_hit(self, client, alpha_campaign):
        sub = client.submit(ALPHA_REF, tenant="another-team")
        assert sub["cached"] is True
        assert sub["state"] == "sealed"
        assert sub["campaign"] != alpha_campaign

    def test_cache_hit_is_byte_identical(self, client, alpha_campaign):
        sub = client.submit(ALPHA_REF, tenant="third-team")
        assert sub["cached"]
        assert (client.report(sub["campaign"], canonical=True)
                == client.report(alpha_campaign, canonical=True))

    def test_cache_crosses_service_processes_with_zero_executions(
            self, client, alpha_campaign, store_dir):
        """A *fresh* service on the same store answers from the cache
        without launching anything -- the cross-user contract."""
        other = ServiceThread(ServiceConfig(
            workers=1, fleet=FleetConfig(store_dir=store_dir)))
        try:
            host, port = other.start()
            fresh = ServiceClient(host, port)
            sub = fresh.submit(ALPHA_REF, tenant="cold-start")
            assert sub["cached"] is True
            status = fresh.status()
            # Zero battery executions: this service never handed
            # anything to its pool.
            assert status["metrics"]["launched"] == 0
            assert status["metrics"]["cache_hits"] == 1
            assert (fresh.report(sub["campaign"], canonical=True)
                    == client.report(alpha_campaign, canonical=True))
        finally:
            other.stop()


class TestCoalescing:
    def test_concurrent_duplicates_run_one_campaign(self, client):
        """N concurrent submissions of one new fingerprint yield one
        campaign id and exactly one launch."""
        before = client.status()["metrics"]
        ref = variant_ref(0)
        results: list = [None] * 6
        barrier = threading.Barrier(len(results))

        def submit(i):
            barrier.wait()
            results[i] = client.submit(ref, tenant=f"racer-{i}")

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        ids = {r["campaign"] for r in results}
        assert len(ids) == 1, f"duplicates ran {len(ids)} campaigns"
        campaign = ids.pop()
        originals = [r for r in results if not r["coalesced"]]
        assert len(originals) == 1
        assert not any(r["cached"] for r in results)
        assert client.wait(campaign) == "sealed"
        after = client.status()["metrics"]
        assert after["launched"] - before["launched"] == 1
        assert after["coalesced"] - before["coalesced"] == len(results) - 1

    def test_late_duplicate_after_seal_hits_cache(self, client):
        sub = client.submit(variant_ref(0), tenant="latecomer")
        # The campaign sealed above, so this is a cache hit -- answered
        # from the sealed record itself if its verdict write is still
        # in flight -- with zero new battery work.
        assert sub["cached"] is True
        assert sub["coalesced"] is False

    def test_duplicate_racing_the_verdict_write_hits_cache(
            self, tmp_path, monkeypatch):
        """A resubmission that lands after ``sealed`` but before the
        verdict blob is written is a cache hit on the sealed record's
        report, and nothing is emitted onto that record's closed
        stream."""
        real_seal = VerdictIndex.seal

        def slow_seal(self, *args, **kwargs):
            time.sleep(1.0)  # a slow fsync
            return real_seal(self, *args, **kwargs)

        monkeypatch.setattr(VerdictIndex, "seal", slow_seal)
        handle = ServiceThread(ServiceConfig(
            workers=1, fleet=FleetConfig(store_dir=str(tmp_path / "store"))))
        try:
            racer = ServiceClient(*handle.start())
            first = racer.submit(variant_ref(9), tenant="first")
            assert racer.wait(first["campaign"]) == "sealed"
            again = racer.submit(variant_ref(9), tenant="second")
            assert (again["cached"], again["coalesced"], again["state"]) == (
                True, False, "sealed")
            assert again["campaign"] != first["campaign"]
            assert (racer.report(again["campaign"], canonical=True)
                    == racer.report(first["campaign"], canonical=True))
            kinds = [e["event"] for e in racer.events(first["campaign"],
                                                      follow=False)]
            assert kinds[-1] == "service.sealed"
            assert "service.coalesced" not in kinds
            assert racer.status()["metrics"]["launched"] == 1
        finally:
            handle.stop()


class TestBackpressure:
    def test_queue_limit_rejects_429_style(self, client):
        client.configure_tenant("bp", max_inflight=1, max_queued=1)
        first = client.submit(variant_ref(1), tenant="bp")
        second = client.submit(variant_ref(2), tenant="bp")
        assert not first["coalesced"] and not second["coalesced"]
        # first holds the tenant's single in-flight slot, second its
        # single queue slot; a third submission must bounce.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(variant_ref(3), tenant="bp")
        assert excinfo.value.code == "backpressure"
        assert "retry later" in excinfo.value.detail
        # The rejected design was never admitted; the earlier two
        # complete normally.
        assert client.wait(first["campaign"]) == "sealed"
        assert client.wait(second["campaign"]) == "sealed"
        snap = client.status()["tenants"]["bp"]
        assert snap["rejected"] == 1
        assert snap["granted"] == 2


class TestEventStream:
    def test_stream_shape_and_order(self, client, alpha_campaign):
        events = list(client.events(alpha_campaign, follow=False))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "service.submitted"
        assert "service.admitted" in kinds
        assert any(k == "service.progress" for k in kinds)
        # The campaign's own replayed events ride in the stream.
        assert "campaign_start" in kinds
        assert "battery_end" in kinds
        assert kinds[-1] == "service.sealed"
        # seq is the cursor: contiguous from 0 on a stream trace.
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert all(e["worker"] == "service" for e in events)

    def test_cursor_resumes_mid_stream(self, client, alpha_campaign):
        full = list(client.events(alpha_campaign, follow=False))
        end_cursor = client.last_end["next"]
        assert end_cursor == len(full)
        cut = len(full) // 2
        tail = list(client.events(alpha_campaign, since=cut, follow=False))
        assert tail == full[cut:]
        # Resuming at the end yields nothing new.
        assert list(client.events(alpha_campaign, since=end_cursor,
                                  follow=False)) == []

    def test_follow_streams_live_to_seal(self, client):
        sub = client.submit(variant_ref(4), tenant="streamer")
        events = list(client.events(sub["campaign"], follow=True))
        assert events[-1]["event"] == "service.sealed"
        assert client.last_end["state"] == "sealed"


class TestFailurePath:
    def test_fleet_abandonment_surfaces_as_campaign_failed(self, client):
        sub = client.submit(
            "tests.service.test_service:failing_bundle", tenant="doomed")
        assert not sub["cached"]
        assert client.wait(sub["campaign"]) == "failed"
        with pytest.raises(ServiceError) as excinfo:
            client.report(sub["campaign"])
        assert excinfo.value.code == "campaign_failed"
        assert "retries" in excinfo.value.detail
        events = list(client.events(sub["campaign"], follow=False))
        assert events[-1]["event"] == "service.failed"

    def test_unresolvable_ref_is_bad_request(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("repro.no_such_module:nothing", tenant="typo")
        assert excinfo.value.code == "bad_request"

    def test_unknown_campaign(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.report("c999999", wait=False)
        assert excinfo.value.code == "unknown_campaign"

    def test_unknown_op(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._call({"op": "frobnicate"})
        assert excinfo.value.code == "unknown_op"


class TestObservability:
    def test_status_carries_store_stats(self, client, alpha_campaign):
        status = client.status()
        assert status["store"]["entries"] > 0
        assert status["store"]["total_bytes"] > 0
        assert status["store"]["degraded"] is False
        assert status["verdict_cache"]["verdict_seals"] >= 1
        assert status["campaigns"]["sealed"] >= 1

    def test_prometheus_exposition(self, client, alpha_campaign):
        text = client.metrics_text()
        assert "# TYPE repro_service_submissions counter" in text
        assert "repro_service_cache_hits" in text
        assert 'repro_service_tenant_queue_depth{tenant="seed"}' in text
        assert 'repro_service_tenant_granted{tenant="seed"}' in text
        assert "repro_service_verdict_hits" in text
        assert "# TYPE repro_service_store_entries gauge" in text

    def test_configure_tenant_round_trips(self, client):
        body = client.configure_tenant("tuned", weight=2.5, max_queued=7)
        assert body["config"]["weight"] == 2.5
        assert body["config"]["max_queued"] == 7
