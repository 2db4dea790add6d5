"""The triage queue's identity index ≡ the linear duplicate scan.

:class:`repro.core.triage.DesignerQueue` finds an incoming item's
duplicate through an identity index; :class:`tests.oracles.ReferenceDesignerQueue`
compares it with every queued item.  Both must collapse the same
findings into the same items, counts and order -- on a real campaign's
findings and on a restored queue whose list already holds waived and
duplicate items, appended to ``items`` directly.
"""

import pytest

from repro.checks.base import Finding, Severity
from repro.checks.driver import make_context
from repro.checks.registry import run_battery
from repro.core.report import report_from_dict
from repro.core.triage import DesignerQueue, QueueItem
from repro.designs import chip_scale
from repro.netlist.flatten import flatten
from repro.process.technology import strongarm_technology
from repro.timing.clocking import TwoPhaseClock
from repro.timing.driver import analyze_design
from tests.oracles import ReferenceDesignerQueue

CLOCK = TwoPhaseClock(period_s=10e-9)


@pytest.fixture(scope="module")
def chip_results():
    cs = chip_scale(1000)
    flat = flatten(cs.cell)
    tech = strongarm_technology()
    ctx = make_context(flat, tech, clock=CLOCK, clock_hints=(cs.clock_port,))
    findings = run_battery(ctx).findings
    timing = analyze_design(flat, tech, CLOCK, clock_hints=(cs.clock_port,)).report
    return findings, timing


def _fill(queue, findings, timing):
    # Twice over, so every identity meets its duplicate.
    for _ in range(2):
        queue.add_findings(findings)
        queue.add_timing(timing.setup_violations, timing.races)
    return queue


def test_chip_findings_collapse_like_the_linear_scan(chip_results):
    findings, timing = chip_results
    got = _fill(DesignerQueue(), findings, timing)
    expected = _fill(ReferenceDesignerQueue(), findings, timing)
    assert len(got.items) > 100
    assert all(item.count >= 2 for item in got.items)
    assert got.items == expected.items


def test_restored_queue_with_waived_duplicates():
    rows = [
        ("beta_ratio", "n1", Severity.FILTERED, "skewed", True),
        ("beta_ratio", "n1", Severity.FILTERED, "skewed", False),
        ("edge_rate", "n2", Severity.VIOLATION, "slow", False),
        ("edge_rate", "n2", Severity.VIOLATION, "slow", True),
        ("edge_rate", "n3", Severity.VIOLATION, "slow", False),
    ]
    data = {"design": "restored", "queue": [
        {"source": src, "subject": sub, "severity": sev.value,
         "message": msg, "waived": waived,
         "waive_reason": "ok" if waived else "", "count": 2}
        for src, sub, sev, msg, waived in rows]}
    incoming = [Finding(check=src, subject=sub, severity=sev, message=msg)
                for src, sub, sev, msg, _ in rows + rows[::-1]]
    incoming.append(Finding(check="edge_rate", subject="n4",
                            severity=Severity.VIOLATION, message="slow"))

    got = report_from_dict(data).queue
    expected = ReferenceDesignerQueue(items=list(report_from_dict(data).queue.items))
    got.add_findings(incoming[:3])
    expected.add_findings(incoming[:3])
    # More items appended directly between absorbs.
    for queue in (got, expected):
        queue.items.append(QueueItem("edge_rate", "n4", Severity.VIOLATION,
                                     "slow", waived=True, waive_reason="ok"))
    got.add_findings(incoming[3:])
    expected.add_findings(incoming[3:])
    assert got.items == expected.items
    # The first item in list order takes the count, waived or not.
    assert [i.count for i in got.items] == [6, 2, 6, 2, 4, 2]


def test_index_is_not_a_constructor_argument():
    """The index is bookkeeping: a caller cannot seed it, e.g. to leave
    the first items out of the duplicate search."""
    for name in ("_first", "_indexed", "_indexed_list"):
        with pytest.raises(TypeError):
            DesignerQueue(**{name: None})
