#!/usr/bin/env python3
"""Per-layer report of a traced run, or the diff of two traced runs.

Usage::

    python3 perfbench/report.py .perfbench/results/chip_cold_1k-s1-t1.json
    python3 perfbench/report.py PARENT.json CHANGE.json

A record is what ``run.py --trace 1`` writes under ``.perfbench/results/``.
The report lists, per layer and per entry point, the calls, inclusive
time (nested same-name calls counted once) and self time (time not
covered by a wrapped callee), then every per-layer metric.  With two
records it prints both side by side with the change, so a performance
change can show in which layer its saving appears.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import count_totals, inclusive_times, self_times  # noqa: E402


def span_table(record: dict) -> dict[str, dict[str, float]]:
    """Per entry point: calls, inclusive and self seconds (plus counted leaves)."""
    spans = record["spans"]["spans"]
    own = self_times(spans)
    inclusive = inclusive_times(spans)
    rows: dict[str, dict[str, float]] = {}
    for s in spans:
        row = rows.setdefault(s["name"], {"calls": 0, "inclusive_s": 0.0,
                                          "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[(s["pid"], s["id"])]
    for name, seconds in inclusive.items():
        rows[name]["inclusive_s"] = seconds
    for name, n in count_totals(record["spans"]["counts"]).items():
        rows[name] = {"calls": n, "inclusive_s": 0.0, "self_s": 0.0}
    return rows


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(rows) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, row in rows.items():
        totals[layer_of(name)] = totals.get(layer_of(name), 0.0) + row["self_s"]
    return totals


def _fmt(value: float) -> str:
    return f"{value:12.6g}"


def render(record: dict) -> str:
    rows = span_table(record)
    lines = [f"{record['workload']} seed {record['seed']} (traced): "
             f"{record['attempted']} requests, {record['failed']} failed",
             "",
             f"{'entry point':36s} {'calls':>12s} {'inclusive_s':>12s} "
             f"{'self_s':>12s}"]
    totals = layer_totals(rows)
    for layer in sorted(totals, key=lambda k: -totals[k]):
        lines.append(f"[{layer}] self {totals[layer]:.6g} s")
        for name in sorted(n for n in rows if layer_of(n) == layer):
            row = rows[name]
            lines.append(f"  {name:34s} {row['calls']:12d} "
                         f"{_fmt(row['inclusive_s'])} {_fmt(row['self_s'])}")
    lines += ["", f"{'per-layer metric':36s} {'value':>12s} unit"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:34s} {_fmt(m['value'])} {m['unit']}")
    return "\n".join(lines)


def _change(a: float, b: float) -> str:
    if a == b:
        return "="
    if a == 0:
        return "new"
    return f"{(b - a) / abs(a):+.1%}"


def render_diff(parent: dict, change: dict) -> str:
    if parent["workload"] != change["workload"]:
        raise SystemExit("records are of different workloads: "
                         f"{parent['workload']} vs {change['workload']}")
    head = f"{'':36s} {'parent':>12s} {'change':>12s} {'delta':>9s}"
    lines = [f"{parent['workload']}: seed {parent['seed']} vs "
             f"seed {change['seed']}", "", "self time per layer (s)", head]
    pa, pb = layer_totals(span_table(parent)), layer_totals(span_table(change))
    for layer in sorted(set(pa) | set(pb), key=lambda k: -pa.get(k, 0.0)):
        a, b = pa.get(layer, 0.0), pb.get(layer, 0.0)
        lines.append(f"  {layer:34s} {_fmt(a)} {_fmt(b)} {_change(a, b):>9s}")
    lines += ["", "per-layer metrics", head]
    for name, m in parent["metrics"].items():
        a = m["value"]
        b = change["metrics"].get(name, {}).get("value", 0.0)
        lines.append(f"  {name:34s} {_fmt(a)} {_fmt(b)} {_change(a, b):>9s}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(Path(p).read_text(encoding="utf-8")) for p in argv]
    for path, record in zip(argv, records):
        if not record.get("trace") or not record.get("spans"):
            print(f"{path} is not the record of a traced run", file=sys.stderr)
            return 2
    print(render(records[0]) if len(records) == 1
          else render_diff(*records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
