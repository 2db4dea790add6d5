"""The one checkpoint reader: verified payload, or None and a logged fault."""

from repro.core.trace import CampaignTrace
from repro.store import ArtifactStore, load_checkpoint

KEY = "c" * 16


def must_be_dict(payload):
    if not isinstance(payload, dict):
        raise TypeError("not a dict")


def test_reader_outcomes(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    trace = CampaignTrace()

    # A miss is silent.
    assert load_checkpoint(store, KEY, "probe", trace, must_be_dict) is None
    assert trace.events == []

    # A valid payload comes back as stored.
    store.put(KEY, {"x": 1})
    assert load_checkpoint(store, KEY, "probe", trace, must_be_dict) == {"x": 1}

    # A blob that fails its checksum: the store quarantines it.
    path = store.put(KEY, {"x": 2})
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
    assert load_checkpoint(store, KEY, "probe", trace, must_be_dict) is None
    assert "checksum" in trace.events[-1].detail

    # A blob that verifies but fails ``valid``: the reader quarantines it.
    store.put(KEY, ["wrong", "shape"])
    assert load_checkpoint(store, KEY, "probe", trace, must_be_dict) is None
    assert not store.has(KEY)
    assert "TypeError: not a dict" in trace.events[-1].detail

    assert [(e.event, e.name) for e in trace.events] == [
        ("checkpoint.corrupt", "probe")] * 2
    assert len([p for p in store.quarantine_dir.iterdir()
                if p.is_file()]) == 2
