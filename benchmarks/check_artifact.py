"""Validate the service bench artifact before CI uploads it.

The perf-trajectory record only has value if every CI leg actually
produced one: a bench that silently skipped the write (or wrote a torn
or shape-shifted file) would upload nothing — or garbage — and the
regression would go unnoticed until someone read the artifact by hand.
This checker fails the job instead.

Usage::

    python benchmarks/check_artifact.py BENCH_service.json
    python benchmarks/check_artifact.py BENCH_http.json --section http

Exits 0 when the file exists, parses, and carries every required
section (``thread_vs_serial``, ``ranked_search``, ``paged_search``,
``metrics``, ``integrity``, and ``http``) with non-empty result rows
and an acceptance block each — the ingest section reports a
``speedup``, the ranked-search section an
``overhead_pct`` plus its ``query`` latency block, the paged-search
section its ``scoring_reads_pages_2_5`` continuation counter, the
metrics section its instrumentation ``overhead_pct`` plus a
``latency`` quantile block, the integrity section its hash-chain
``overhead_pct``, the http section its
``journal_appends_during_overload`` shed counter plus per-endpoint
``latency`` quantiles; exits 2 with a diagnosis otherwise.

``--section NAME`` validates just that section — for CI legs that run
one bench test and therefore write a one-section artifact (the full
record is always rewritten whole from the run's own results, never
merged with a stale file).
"""

from __future__ import annotations

import json
import sys

REQUIRED_SECTIONS = (
    "thread_vs_serial",
    "ranked_search",
    "paged_search",
    "metrics",
    "integrity",
    "http",
)
REQUIRED_RESULT_KEYS = {"shards", "fsync", "workers", "events"}
#: What each section's acceptance block must quantify.
ACCEPTANCE_METRIC = {
    "thread_vs_serial": "speedup",
    "ranked_search": "overhead_pct",
    "paged_search": "scoring_reads_pages_2_5",
    "metrics": "overhead_pct",
    "integrity": "overhead_pct",
    "http": "journal_appends_during_overload",
}
#: Display unit per metric (acceptance values print as value+unit).
METRIC_UNIT = {
    "speedup": "x",
    "overhead_pct": "%",
    "scoring_reads_pages_2_5": " reads",
    "journal_appends_during_overload": " appends",
}


def check(
    path: str, sections: tuple[str, ...] = REQUIRED_SECTIONS
) -> list[str]:
    """Every problem with the artifact at *path* (empty = valid)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except FileNotFoundError:
        return [f"{path}: missing — the bench never wrote its artifact"]
    except json.JSONDecodeError as exc:
        return [f"{path}: malformed JSON ({exc})"]
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"{path}: top level is {type(record).__name__}, not an object"]
    if record.get("bench") != "service_ingest_throughput":
        problems.append(f"unexpected bench id {record.get('bench')!r}")
    if not isinstance(record.get("workload"), dict):
        problems.append("missing workload description")
    for section in sections:
        body = record.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing section {section!r}")
            continue
        results = body.get("results")
        if not isinstance(results, list) or not results:
            problems.append(f"{section}: no result rows")
        else:
            for index, row in enumerate(results):
                missing = REQUIRED_RESULT_KEYS - set(row)
                if missing:
                    problems.append(
                        f"{section}: row {index} lacks {sorted(missing)}"
                    )
        acceptance = body.get("acceptance")
        metric = ACCEPTANCE_METRIC[section]
        if not isinstance(acceptance, dict) or metric not in acceptance:
            problems.append(
                f"{section}: no acceptance block with {metric!r}"
            )
        elif acceptance.get("asserted") and not acceptance.get("passed"):
            # The bench's own assert should have failed first; a
            # recorded asserted-but-failed acceptance means the
            # artifact carries a known regression — fail loudly
            # rather than upload it as if it were a clean record.
            problems.append(
                f"{section}: acceptance asserted but not passed"
                f" ({metric}={acceptance.get(metric)})"
            )
        if section == "ranked_search" and not isinstance(
            body.get("query"), dict
        ):
            problems.append("ranked_search: no query latency block")
        if section == "metrics" and not isinstance(
            body.get("latency"), dict
        ):
            problems.append("metrics: no latency quantile block")
        if section == "integrity":
            verify = body.get("verify")
            if not isinstance(verify, dict):
                problems.append("integrity: no verify block")
            elif not verify.get("ok"):
                problems.append(
                    "integrity: the benched journal failed verification"
                )
        if section == "http" and not isinstance(body.get("latency"), dict):
            problems.append("http: no per-endpoint latency block")
    return problems


def main(argv: list[str]) -> int:
    args = list(argv[1:])
    sections = REQUIRED_SECTIONS
    if "--section" in args:
        at = args.index("--section")
        try:
            wanted = args[at + 1]
        except IndexError:
            print(__doc__)
            return 2
        if wanted not in REQUIRED_SECTIONS:
            print(
                f"BENCH ARTIFACT INVALID: unknown section {wanted!r}"
                f" (known: {', '.join(REQUIRED_SECTIONS)})"
            )
            return 2
        sections = (wanted,)
        del args[at:at + 2]
    if len(args) != 1:
        print(__doc__)
        return 2
    problems = check(args[0], sections)
    if problems:
        for problem in problems:
            print(f"BENCH ARTIFACT INVALID: {problem}")
        return 2
    with open(args[0], "r", encoding="utf-8") as handle:
        record = json.load(handle)
    for section in sections:
        acceptance = record[section]["acceptance"]
        metric = ACCEPTANCE_METRIC[section]
        unit = METRIC_UNIT[metric]
        print(
            f"{section}: {metric} {acceptance.get(metric)}{unit}"
            f" (passed={acceptance.get('passed')})"
        )
    print(f"{args[0]}: valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
