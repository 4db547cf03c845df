"""Parent-versus-change verdicts: ``python -m bench compare``.

Reads run records (the JSON record line ``run`` prints for each
workload, from files its output was saved to) for the parent commit
and for the change, and applies the benchmark's decision rules with
the bounds fixed in ``BENCHMARK.json``:

* **No regression**, for every (metric, workload): every end-to-end
  metric, and every per-workload metric that no end-to-end metric
  holds (``audit_p50_ms`` on ``forensics``, ``write_p95_ms`` and
  ``fresh_p95_ms`` on ``mixed``), which takes the bound of the
  end-to-end metric its record names as its gate.  The change's median
  may be worse than the parent's by at most the bound.  Where the
  run-to-run spread (interquartile distance over median, the wider of
  the two sides) exceeds the bound, the cell reads ``unresolved`` —
  unless every change run beats every parent run.  Any rise in the
  error rate fails.
* **Gain**, for each ``--claim metric@workload``: at least ten pairs
  (parent run *i* against change run *i*, run alternately), the change
  wins at least nine in ten of them (ties count for neither), and the
  medians differ, in the change's favour, by more than the parent's
  own interquartile distance.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from bench.stats import quartiles, spread

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(paths: list[str]) -> list[dict]:
    """Untraced run records from saved ``run`` output, in file order."""
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "workload" in record and not record.get("trace"):
                    records.append(record)
    return records


def load_bounds() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) from the benchmark definition."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in spec["end_to_end"]
    }


def by_workload(records: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        grouped[record["workload"]].append(record)
    return grouped


def gated(record: dict) -> dict[str, str]:
    """Metric -> the end-to-end metric whose bound applies to it."""
    rules = {name: name for name in record["end_to_end"]}
    for name, entry in record["named"].items():
        if entry["gate"]:
            rules[name] = entry["gate"]
    return rules


def values(records: list[dict], name: str) -> list[float]:
    return [
        record["end_to_end"][name] if name in record["end_to_end"]
        else record["named"][name]["value"]
        for record in records
    ]


def beats(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def no_regression(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float]:
    """``(verdict, relative change of the median)`` for one row cell."""
    parent_median = statistics.median(parent)
    delta = (statistics.median(change) - parent_median) / parent_median
    worse = delta if better == "lower" else -delta
    if all(beats(c, p, better) for c in change for p in parent):
        return "ok", delta
    if max(spread(parent), spread(change)) > bound:
        return "unresolved", delta
    if worse > bound:
        return "REGRESSED", delta
    return "ok", delta


def error_verdict(parent: list[dict], change: list[dict]) -> str:
    def rate(records: list[dict]) -> float:
        attempted = sum(record["attempted"] for record in records)
        return sum(record["failed"] for record in records) / attempted

    return "FAILED" if rate(change) > rate(parent) else "ok"


def gain(
    parent: list[float], change: list[float], better: str
) -> tuple[bool, str]:
    """The gain rule on paired runs; returns (met, explanation)."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return False, f"{len(pairs)} pairs, need {MIN_PAIRS}"
    wins = sum(beats(c, p, better) for p, c in pairs)
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    gap = (parent_median - change_median if better == "lower"
           else change_median - parent_median)
    met = wins >= WIN_SHARE * len(pairs) and gap > q3 - q1
    return met, (
        f"change wins {wins}/{len(pairs)} pairs; median"
        f" {parent_median:.4f} -> {change_median:.4f}; parent IQR"
        f" {q3 - q1:.4f}"
    )


def main(args) -> int:
    bounds = load_bounds()
    parent = by_workload(load_records(args.parent))
    change = by_workload(load_records(args.change))
    failing = False
    for workload in sorted(set(parent) & set(change)):
        cells = []
        for name, gate in gated(parent[workload][0]).items():
            better, bound = bounds[gate]
            verdict, delta = no_regression(
                values(parent[workload], name),
                values(change[workload], name),
                better, bound,
            )
            failing |= verdict == "REGRESSED"
            cells.append(f"{name} {verdict} {delta:+.1%}")
        errors = error_verdict(parent[workload], change[workload])
        failing |= errors != "ok"
        cells.append(f"error_rate {errors}")
        print(f"{workload:<9} " + "; ".join(cells))
    for claim in args.claim:
        name, _sep, workload = claim.partition("@")
        rules = gated(parent[workload][0]) if workload in parent else {}
        if name not in rules or workload not in change:
            print(f"claim {claim}: unknown metric or workload without runs")
            failing = True
            continue
        met, why = gain(
            values(parent[workload], name),
            values(change[workload], name),
            bounds[rules[name]][0],
        )
        failing |= not met
        print(f"claim {claim}: {'MET' if met else 'NOT MET'} ({why})")
    return 1 if failing else 0
