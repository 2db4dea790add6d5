"""Spans and counts recorded from outside the program.

The traced run wraps the public entry points of each layer (see
:data:`perfbench.layers.ENTRY_POINTS`).  A wrapped call records a span
``(id, parent, name, start, end, request)``; a hot leaf records a count
per request only.  Spans stay in memory and are written once, when the run ends;
forked fleet workers inherit the wrappers and write their own file.

Wrappers are installed in every namespace that holds the entry point,
because callers such as :mod:`repro.core.campaign` import functions by
name and would otherwise keep calling the original.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Modules whose globals are searched for by-name imports of an entry point.
_PATCHED_PACKAGES = ("repro", "perfbench")


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._thread_counts: list[dict[str, int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            # Counts per request id; ``counts`` is the current request's.
            local.by_rid = {None: {}}
            local.counts = local.by_rid[None]
            self._thread_counts.append(local.by_rid)
        return local

    @contextlib.contextmanager
    def request(self, rid):
        """Tag spans and counts recorded by this thread with ``rid``."""
        state = self._state()
        previous = state.rid, state.counts
        state.rid, state.counts = rid, state.by_rid.setdefault(rid, {})
        try:
            yield
        finally:
            state.rid, state.counts = previous

    def span_wrapper(self, name: str, fn, attrs=None):
        spans, ids, state_of = self.spans, self._ids, self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = attrs(result) if attrs is not None and result is not None else None
                spans.append((sid, parent, name, start, end, state.rid, extra))

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name: str, fn):
        state_of = self._state

        def counted(*args, **kwargs):
            counts = state_of().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def reset(self) -> None:
        """Forget everything recorded so far (a forked child's fresh start)."""
        self.spans.clear()
        for by_rid in self._thread_counts:
            for counts in by_rid.values():
                counts.clear()

    def dump(self) -> dict:
        totals: dict[tuple, int] = {}
        for by_rid in list(self._thread_counts):
            for rid, counts in list(by_rid.items()):
                for name, n in counts.items():
                    totals[rid, name] = totals.get((rid, name), 0) + n
        pid = os.getpid()
        return {
            "counts": [{"pid": pid, "rid": rid, "name": name, "n": n}
                       for (rid, name), n in totals.items()],
            "spans": [{"pid": pid, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end, "rid": rid,
                       "attrs": extra}
                      for sid, parent, name, start, end, rid, extra
                      in self.spans],
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.dump()), encoding="utf-8")

    # -- installation ----------------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, original, wrapper) -> int:
        """Replace ``original`` by ``wrapper`` in every module that holds it."""
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(_PATCHED_PACKAGES):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, wrapper)
                    replaced += 1
        return replaced

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.replace(cls, attr, classmethod(make_wrapper(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self.replace(cls, attr, staticmethod(make_wrapper(raw.__func__)))
        else:
            self.replace(cls, attr, make_wrapper(raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def load(paths) -> dict:
    """Merge span files (or dumps) into one ``{"counts", "spans"}`` dict."""
    merged: dict = {"counts": [], "spans": []}
    for item in paths:
        data = (item if isinstance(item, dict)
                else json.loads(Path(item).read_text(encoding="utf-8")))
        merged["counts"].extend(data["counts"])
        merged["spans"].extend(data["spans"])
    return merged


def count_totals(counts) -> dict[str, int]:
    """Calls per counted leaf, summed over processes and requests."""
    totals: dict[str, int] = {}
    for c in counts:
        totals[c["name"]] = totals.get(c["name"], 0) + c["n"]
    return totals


def self_times(spans) -> dict[tuple, float]:
    """Self time of every span: its duration minus what its children cover.

    Keys are ``(pid, id)``.  Children are the spans whose ``parent`` is
    the span's id in the same process; the part of the parent's
    interval they cover is the union of their intervals clipped to it.
    """
    children: dict[tuple, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"]:
            children.setdefault((s["pid"], s["parent"]), []).append(
                (s["start"], s["end"]))
    result = {}
    for s in spans:
        key = (s["pid"], s["id"])
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children.get(key, ())):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[key] = (s["end"] - s["start"]) - covered
    return result


def inclusive_times(spans) -> dict[str, float]:
    """Inclusive time per span name, counting nested same-name spans once.

    A recursive or overriding entry point (``settle`` calling its base
    class, ``classify`` calling ``classify_ccc``) would otherwise count
    the same interval twice.
    """
    by_key = {(s["pid"], s["id"]): s for s in spans}
    totals: dict[str, float] = {}
    for s in spans:
        parent = by_key.get((s["pid"], s["parent"]))
        nested = False
        while parent is not None:
            if parent["name"] == s["name"]:
                nested = True
                break
            parent = by_key.get((parent["pid"], parent["parent"]))
        if not nested:
            totals[s["name"]] = (totals.get(s["name"], 0.0)
                                 + s["end"] - s["start"])
    return totals
