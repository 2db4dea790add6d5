"""The designer triage queue.

Section 2.3's workflow endpoint: "This allows the designer to work with
the CAD tool to identify and isolate real problems in the design."  All
FILTERED and VIOLATION findings -- electrical and timing -- flow into
one prioritized queue; the designer disposes of each item by *waiving*
it (with a recorded reason) or leaving it open.  A clean tapeout needs
an empty open-violation list, exactly the project-control discipline
section 4's introduction demands.

Identical findings (same source, subject, severity, and message -- e.g.
the same check re-reporting one net across corners) collapse into a
single item with an occurrence ``count``, and a waiver signs off exactly
one open item per call unless ``all_matching=True`` is explicit: a
duplicate can never be mass-waived under somebody else's reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checks.base import Finding, Severity
from repro.timing.analyzer import RaceViolation, TimingPath


@dataclass
class QueueItem:
    """One item awaiting designer disposition."""

    source: str        # check name or "timing.setup"/"timing.race"
    subject: str
    severity: Severity
    message: str
    waived: bool = False
    waive_reason: str = ""
    #: Identical findings collapsed into this item.
    count: int = 1

    def key(self) -> tuple[str, str]:
        return (self.source, self.subject)

    def identity(self) -> tuple[str, str, Severity, str]:
        """Full dedup key: two findings with this tuple equal are the
        same item, reported again."""
        return (self.source, self.subject, self.severity, self.message)


@dataclass
class DesignerQueue:
    """Prioritized inspection queue with waiver bookkeeping."""

    items: list[QueueItem] = field(default_factory=list)
    #: Identity -> first item of ``items`` with it, over the first
    #: ``_indexed`` items of the list object ``_indexed_list``.
    _first: dict[tuple, QueueItem] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)
    _indexed_list: list | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def _absorb(self, item: QueueItem) -> None:
        """Append ``item``, collapsing exact duplicates into a count on
        the first item (in list order, waived or not) with its identity.

        Callers may append to ``items`` directly (a restored report
        does); the index takes those in on the next call, and starts
        over if the list was replaced or shrank.
        """
        items = self.items
        if self._indexed_list is not items or self._indexed > len(items):
            self._first = {}
            self._indexed = 0
            self._indexed_list = items
        first = self._first
        for existing in items[self._indexed:]:
            first.setdefault(existing.identity(), existing)
        key = item.identity()
        existing = first.get(key)
        if existing is not None:
            existing.count += item.count
        else:
            items.append(item)
            first[key] = item
        self._indexed = len(items)

    def add_findings(self, findings: list[Finding]) -> None:
        for f in findings:
            if f.severity is Severity.PASS:
                continue
            self._absorb(QueueItem(
                source=f.check, subject=f.subject,
                severity=f.severity, message=f.message,
            ))

    def add_timing(self, setup_violations: list[TimingPath],
                   races: list[RaceViolation]) -> None:
        for path in setup_violations:
            self._absorb(QueueItem(
                source="timing.setup", subject=path.endpoint,
                severity=Severity.VIOLATION,
                message=f"setup slack {path.slack_s * 1e12:.1f} ps "
                        f"through {' -> '.join(path.nets[-4:])}",
            ))
        for race in races:
            self._absorb(QueueItem(
                source="timing.race", subject=race.constraint.net,
                severity=Severity.VIOLATION,
                message=race.note,
            ))

    def waive(self, source: str, subject: str, reason: str,
              all_matching: bool = False) -> int:
        """Designer sign-off (reason is mandatory); returns items waived.

        Exactly one *open* item matching ``(source, subject)`` is waived
        per call; distinct findings sharing a key each need their own
        recorded reason.  ``all_matching=True`` waives every open match
        at once (an explicit bulk disposition).
        """
        if not reason.strip():
            raise ValueError("a waiver requires a recorded reason")
        matches = [i for i in self.items if i.key() == (source, subject)]
        if not matches:
            raise KeyError(f"no queue item ({source!r}, {subject!r})")
        open_matches = [i for i in matches if not i.waived]
        if not open_matches:
            raise KeyError(
                f"no open queue item ({source!r}, {subject!r}): "
                f"all {len(matches)} matching item(s) already waived")
        targets = open_matches if all_matching else open_matches[:1]
        for item in targets:
            item.waived = True
            item.waive_reason = reason
        return len(targets)

    def open_items(self) -> list[QueueItem]:
        order = {Severity.VIOLATION: 0, Severity.FILTERED: 1}
        return sorted((i for i in self.items if not i.waived),
                      key=lambda i: (order.get(i.severity, 2), i.source, i.subject))

    def open_violations(self) -> list[QueueItem]:
        return [i for i in self.open_items()
                if i.severity is Severity.VIOLATION]

    def tapeout_clean(self) -> bool:
        """True when no unwaived violation remains."""
        return not self.open_violations()
