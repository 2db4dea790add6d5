"""Shared derived-artifact cache for one verification session.

A verification session touches the same flat netlist from many angles:
the check battery, STA, power analysis, and ad-hoc queries all start by
recognizing the design, extracting parasitics, and annotating corners.
:class:`DesignCache` derives each artifact once per netlist and hands
out the shared instance; every product is immutable-in-practice (nothing
downstream mutates a ``RecognizedDesign`` or ``Parasitics``), so sharing
is safe.

Keys are ``id()``-based with a strong reference to the keyed object:
identity equality is exact (no hashing of huge netlists), and the strong
reference both keeps the artifact valid and prevents the classic
recycled-``id()`` aliasing bug.  The flip side is that cached netlists
live as long as the cache -- scope a ``DesignCache`` to a session or
campaign, not to the process.

The classification memo inside (:class:`ClassificationMemo`) is shared
across *all* designs in the cache: it stores name-free topology
templates, so a regfile and a datapath that stamp the same latch reuse
one classification.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.extraction.annotate import AnnotatedDesign, annotate
from repro.extraction.caps import Parasitics
from repro.extraction.wireload import WireloadModel
from repro.netlist.flatten import FlatNetlist
from repro.process.corners import Corner
from repro.process.technology import Technology
from repro.recognition.ccc import ChannelConnectedComponent, extract_cccs
from repro.recognition.memo import ClassificationMemo
from repro.recognition.recognizer import RecognizedDesign, recognize
from repro.switchsim.tables import PackedSwitchTables


class DesignCache:
    """Session-scoped cache of recognition/extraction/annotation results.

    Parameters
    ----------
    memo:
        Classification memo to share; a fresh one is created by default
        so the cache is fully self-contained (pass the process-wide memo
        if you want cross-session template reuse).
    """

    def __init__(self, memo: ClassificationMemo | None = None) -> None:
        self.memo = memo if memo is not None else ClassificationMemo()
        # key -> (keyed objects kept alive, value)
        self._recognized: dict[tuple, tuple] = {}
        self._parasitics: dict[tuple, tuple] = {}
        self._annotated: dict[tuple, tuple] = {}
        self._switch_tables: dict[tuple, tuple] = {}
        self._cccs: dict[int, tuple] = {}
        self.hits = 0
        self.misses = 0
        # CCC extractions counted apart: every artifact above rides
        # them, so folding them into hits/misses would double-count.
        self.ccc_hits = 0
        self.ccc_misses = 0

    # -- recognition ---------------------------------------------------------

    def cccs(self, flat: FlatNetlist) -> list[ChannelConnectedComponent]:
        """The shared CCC extraction for ``flat`` (cached).

        One extraction -- and, crucially, one set of per-CCC path
        caches and sweep states -- serves recognition, packed-table
        build, the scalar reference engine, and the checks.  Keyed on
        ``(identity, mutation epoch)``: in-place rewires that call
        :meth:`FlatNetlist.note_mutation` (``rebuild_connectivity``
        does) invalidate the extraction; geometry-only edits re-extract
        too, which is cheap next to re-enumerating paths.
        """
        key = id(flat)
        epoch = getattr(flat, "mutation_epoch", 0)
        entry = self._cccs.get(key)
        if entry is not None and entry[0] is flat and entry[2] == epoch:
            self.ccc_hits += 1
            return entry[1]
        self.ccc_misses += 1
        cccs = extract_cccs(flat)
        self._cccs[key] = (flat, cccs, epoch)
        return cccs

    def recognized(self, flat: FlatNetlist,
                   clock_hints: Iterable[str] = ()) -> RecognizedDesign:
        """The (cached) recognition result for ``flat``."""
        hints = tuple(clock_hints)
        key = (id(flat), hints)
        entry = self._recognized.get(key)
        if entry is not None and entry[0] is flat:
            self.hits += 1
            return entry[1]
        self.misses += 1
        design = recognize(flat, clock_hints=hints, memo=self.memo,
                           cccs=self.cccs(flat))
        self._recognized[key] = (flat, design)
        return design

    # -- extraction / annotation ---------------------------------------------

    def parasitics(self, flat: FlatNetlist,
                   technology: Technology) -> Parasitics:
        """Wireload-model parasitics for ``flat`` (cached)."""
        key = (id(flat), id(technology))
        entry = self._parasitics.get(key)
        if entry is not None and entry[0] is flat and entry[1] is technology:
            self.hits += 1
            return entry[2]
        self.misses += 1
        parasitics = WireloadModel().extract(flat, technology.wires)
        self._parasitics[key] = (flat, technology, parasitics)
        return parasitics

    def annotated(self, flat: FlatNetlist, parasitics: Parasitics,
                  technology: Technology, corner: Corner) -> AnnotatedDesign:
        """Corner-annotated design for ``flat`` (cached)."""
        key = (id(flat), id(parasitics), id(technology), corner)
        entry = self._annotated.get(key)
        if (entry is not None and entry[0] is flat
                and entry[1] is parasitics and entry[2] is technology):
            self.hits += 1
            return entry[3]
        self.misses += 1
        annotated = annotate(flat, parasitics, technology, corner)
        self._annotated[key] = (flat, parasitics, technology, annotated)
        return annotated

    # -- switch-level simulation ----------------------------------------------

    def switch_tables(self, flat: FlatNetlist,
                      l_min_um: float = 0.35) -> PackedSwitchTables:
        """Packed switch-simulation solve tables for ``flat`` (cached).

        Unlike the other artifacts, identity of the netlist object is
        *not* enough here: a sizing loop mutates device geometry in
        place, which would silently invalidate the packed conductances.
        Every hit therefore re-checks the tables' content fingerprint
        (memoized per mutation epoch, so unmutated hits stop re-hashing)
        and rebuilds on mismatch instead of serving stale arrays.
        """
        key = (id(flat), float(l_min_um))
        entry = self._switch_tables.get(key)
        if (entry is not None and entry[0] is flat
                and entry[1].matches(flat, l_min_um)):
            self.hits += 1
            return entry[1]
        self.misses += 1
        tables = PackedSwitchTables.build(flat, l_min_um=l_min_um,
                                          cccs=self.cccs(flat))
        self._switch_tables[key] = (flat, tables)
        return tables

    # -- introspection --------------------------------------------------------

    def counters(self) -> dict[str, int]:
        out = {"cache_hits": self.hits, "cache_misses": self.misses,
               "cache_ccc_hits": self.ccc_hits,
               "cache_ccc_misses": self.ccc_misses}
        out.update(self.memo.counters())
        return out


def collect_counters(*sources) -> dict[str, float]:
    """Merge perf-counter dicts into one, coercing values to float.

    Accepts plain dicts or objects exposing ``counters()`` -- e.g. a
    ``SwitchSimulator``, a :class:`DesignCache`, or a
    ``ClassificationMemo`` -- skipping ``None`` so call sites can pass
    optional components unconditionally.  Raises ``ValueError`` naming
    the key when two sources set the same one: a silent overwrite
    would drop a counter from the report.
    """
    merged: dict[str, float] = {}
    for src in sources:
        if src is None:
            continue
        counters = src.counters() if hasattr(src, "counters") else src
        for name, value in counters.items():
            if name in merged:
                raise ValueError(
                    f"counter {name!r} is set by more than one source")
            merged[name] = float(value)
    return merged
