"""A campaign record that can no longer change freezes to bytes.

Sealed (once its verdict write has returned), answered from the cache,
or failed: the record's report dict and stream events become one
pickled blob, and the ``report`` and ``events`` ops decode it on
demand.  Clients must not be able to tell: every answer is the same
bytes before and after the record freezes.  The tests hold each
record's freeze back until its live answers have been read.
"""

import multiprocessing
import socket
import threading
import time

import pytest

from repro.fleet.jobs import FleetConfig
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    variant_ref,
)
from repro.service.protocol import decode, encode
from repro.service.server import CampaignRecord
from repro.service.suite import VARIANT_COUNT, variant_bundle

FAILING_REF = "tests.service.test_records:failing_bundle"


def failing_bundle():
    """Resolves in the service process, raises inside fleet workers."""
    if multiprocessing.current_process().name != "MainProcess":
        raise RuntimeError("injected worker failure")
    return variant_bundle(VARIANT_COUNT - 2)


@pytest.fixture
def service(tmp_path, monkeypatch):
    """A one-worker service whose records freeze only when told to."""
    held: dict[str, CampaignRecord] = {}
    freeze = CampaignRecord.freeze
    monkeypatch.setattr(CampaignRecord, "freeze",
                        lambda record: held.setdefault(record.id, record))
    handle = ServiceThread(ServiceConfig(
        workers=1, fleet=FleetConfig(store_dir=str(tmp_path / "store"))))
    host, port = handle.start()

    def release(cid: str) -> CampaignRecord:
        """Wait for ``cid``'s freeze, then run it on the event loop."""
        deadline = time.monotonic() + 60.0
        while cid not in held:
            assert time.monotonic() < deadline, f"{cid} never froze"
            time.sleep(0.01)
        record = held.pop(cid)
        done = threading.Event()

        def run():
            freeze(record)
            done.set()

        handle.service.loop.call_soon_threadsafe(run)
        assert done.wait(10.0)
        assert record.report_dict is None and record.update_event() is None
        return record

    try:
        yield ServiceClient(host, port), release
    finally:
        handle.stop()


def answers(client: ServiceClient, cid: str) -> list[bytes]:
    """Every byte of the report (canonical and full) and events (from 0
    and from a mid cursor) answers for ``cid``."""
    def raw(request: dict) -> bytes:
        with socket.create_connection((client.host, client.port),
                                      timeout=60.0) as sock:
            sock.sendall(encode(request))
            chunks = []
            while chunk := sock.recv(1 << 16):
                chunks.append(chunk)
        return b"".join(chunks)

    middle = len(list(client.events(cid, follow=False))) // 2
    return [raw({"op": "report", "campaign": cid, "canonical": True}),
            raw({"op": "report", "campaign": cid, "canonical": False}),
            raw({"op": "events", "campaign": cid, "follow": False}),
            raw({"op": "events", "campaign": cid, "since": middle,
                 "follow": False})]


def same_before_and_after(client, release, cid: str) -> list[bytes]:
    before = answers(client, cid)
    release(cid)
    after = answers(client, cid)
    assert after == before
    return after


def test_records_answer_the_same_bytes_once_frozen(service):
    client, release = service

    # Fresh, streamed live from submission to seal.
    fresh = client.submit(variant_ref(20), tenant="fresh")["campaign"]
    live = list(client.events(fresh, follow=True))
    assert live[-1]["event"] == "service.sealed"
    fresh_answers = same_before_and_after(client, release, fresh)
    assert list(client.events(fresh, follow=False)) == live

    # Answered from the verdict cache: the same report bytes.
    cached = client.submit(variant_ref(20), tenant="again")
    assert cached["cached"]
    cached_answers = same_before_and_after(client, release,
                                           cached["campaign"])
    assert (decode(cached_answers[0])["canonical_json"]
            == decode(fresh_answers[0])["canonical_json"])

    # Coalesced: duplicates in flight share one record.
    results: list = [None] * 4
    barrier = threading.Barrier(len(results))

    def submit(i):
        barrier.wait()
        results[i] = client.submit(variant_ref(21), tenant=f"racer-{i}")

    threads = [threading.Thread(target=submit, args=(i,))
               for i in range(len(results))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({r["campaign"] for r in results}) == 1
    assert sum(r["coalesced"] for r in results) == len(results) - 1
    shared = results[0]["campaign"]
    assert client.wait(shared) == "sealed"
    kinds = [e["event"] for e in client.events(shared, follow=False)]
    assert "service.coalesced" in kinds
    same_before_and_after(client, release, shared)

    # Failed: no report, an error answer, and the stream up to the
    # failure.
    doomed = client.submit(FAILING_REF, tenant="doomed")["campaign"]
    assert client.wait(doomed) == "failed"
    failed_answers = same_before_and_after(client, release, doomed)
    assert b"campaign_failed" in failed_answers[0]
    assert b"service.failed" in failed_answers[2]
