"""Tests of the benchmark itself (not part of tier-1).

Run explicitly from the checkout root::

    PYTHONPATH=src python -m pytest bench/test_bench.py -q

The smoke tests run every workload on a tiny corpus through the same
code paths as a full run (about a minute in all).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from repro.service.events import EdgeEvent, IntervalEvent, NodeEvent

from bench import compare
from bench.__main__ import RUN_SECONDS
from bench.client import CHECKOUT
from bench.corpus import SMOKE, generate, tenant_of
from bench.ledger import PER_LAYER, TIME_UNITS
from bench.spans import WRAPPERS
from bench.workloads import END_TO_END, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = CHECKOUT, timeout: float = 170):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def records(stdout: str) -> list[dict]:
    return [
        json.loads(line) for line in stdout.splitlines()
        if line.startswith("{") and '"workload"' in line
    ]


# -- the benchmark definition ----------------------------------------------------


def test_benchmark_json_matches_the_code():
    definition = spec()
    assert set(definition) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert definition["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in definition["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in definition["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in definition["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in definition["end_to_end"] + definition["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
    for metric in definition["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for workload in definition["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


# -- corpus ----------------------------------------------------------------------


def test_corpus_is_reproducible_and_causal():
    streams = generate(SMOKE)
    assert streams == generate(SMOKE)
    for index, lines in enumerate(streams):
        tenant = tenant_of(f"t{index:02d}", 1, lines)
        seen: set[str] = set()
        for event in tenant.events:
            if isinstance(event, NodeEvent):
                seen.add(event.node.id)
            elif isinstance(event, EdgeEvent):
                assert {event.edge.src, event.edge.dst} <= seen
            else:
                assert isinstance(event, IntervalEvent)
                assert event.interval.node_id in seen


# -- compare rules on synthetic records -------------------------------------------


def test_no_regression_rules():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8]
    assert compare.no_regression(parent, parent, "lower", 0.1)[0] == "ok"
    slower = [v * 1.2 for v in parent]
    assert compare.no_regression(parent, slower, "lower", 0.1)[0] == "REGRESSED"
    assert compare.no_regression(parent, slower, "higher", 0.1)[0] == "ok"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 20.0]
    assert compare.no_regression(parent, noisy, "lower", 0.1)[0] == "unresolved"
    faster_noisy = [1.0, 3.0, 2.0, 5.0, 9.0, 1.5]
    assert compare.no_regression(parent, faster_noisy, "lower", 0.1)[0] == "ok"


def test_gain_rule():
    parent = [10.0 + 0.1 * (i % 3) for i in range(10)]
    better = [v - 1.0 for v in parent]
    assert compare.gain(parent, better, "lower")[0]
    assert not compare.gain(parent[:9], better[:9], "lower")[0]
    two_losses = better[:8] + [11.0, 11.0]
    assert not compare.gain(parent, two_losses, "lower")[0]
    within_iqr = [v - 0.01 for v in parent]
    assert not compare.gain(parent, within_iqr, "lower")[0]
    assert compare.gain(parent, [v + 1.0 for v in parent], "higher")[0]


def synthetic(value: float, audit: float, failed: int = 0) -> str:
    record = {
        "workload": "forensics", "trace": False, "attempted": 100,
        "failed": failed,
        "end_to_end": {name: value for name in END_TO_END},
        "named": {
            "audit_p50_ms": {"value": audit, "unit": "ms", "samples": 30,
                             "gate": "p50_ms"},
            "walk_p50_ms": {"value": value, "unit": "ms", "samples": 900,
                            "gate": None},
        },
    }
    return json.dumps(record) + "\n"


def test_compare_main_verdicts(tmp_path, capsys):
    def runs(name: str, value: float, audit: float, failed: int = 0) -> str:
        path = tmp_path / name
        path.write_text("".join(
            synthetic(value + 0.01 * i, audit + 0.01 * i, failed)
            for i in range(10)
        ))
        return str(path)

    parent = runs("parent", 10, 200)

    def run(change: str, claims=()) -> int:
        return compare.main(SimpleNamespace(
            parent=[parent], change=[change], claim=list(claims),
        ))

    assert run(runs("same", 10, 200)) == 0
    assert run(runs("worse", 13, 200)) == 1
    assert "p50_ms REGRESSED" in capsys.readouterr().out
    assert run(runs("slower_audit", 10, 260)) == 1
    assert "audit_p50_ms REGRESSED" in capsys.readouterr().out
    assert run(runs("failing", 10, 200, failed=1)) == 1
    assert run(runs("same_again", 10, 200), ["p50_ms@forensics"]) == 1
    assert "NOT MET" in capsys.readouterr().out
    assert run(runs("faster_audit", 10, 150), ["audit_p50_ms@forensics"]) == 0
    assert "MET" in capsys.readouterr().out


# -- smoke runs --------------------------------------------------------------------


def test_smoke_prints_every_metric_with_its_unit():
    result = bench("run", "--smoke", "--seconds", "2", "--seed", "5")
    assert result.returncode == 0, result.stderr
    found = records(result.stdout)
    assert [r["workload"] for r in found] == list(WORKLOADS)
    lines = result.stdout.splitlines()
    for workload in WORKLOADS:
        for name, unit in END_TO_END.items():
            assert any(
                re.fullmatch(rf"{workload} {name}\s+\S+ {re.escape(unit)}", line)
                for line in lines
            ), (workload, name)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_traced_smoke_fires_every_wrapper():
    result = bench("run", "--smoke", "--seconds", "2", "--trace", "1")
    assert result.returncode == 0, result.stderr
    by_workload = {r["workload"]: r for r in records(result.stdout)}
    assert set(by_workload) == set(WORKLOADS)
    for workload, record in by_workload.items():
        assert set(record["per_layer"]) == set(PER_LAYER)
        details = record["trace_details"]
        assert details["missing"] == []
        fired = details["fired"]
        for name, _module, _attribute, loads, _tag in WRAPPERS:
            if workload in loads:
                assert fired.get(name, 0) > 0, (workload, name)
        # Every time is measured on every workload: from the window, or
        # from the coverage pass where the workload leaves a layer idle.
        for name, unit in PER_LAYER.items():
            if unit in TIME_UNITS:
                assert record["per_layer"][name] > 0, (workload, name)
    assert by_workload["recall"]["per_layer"]["search.scan_p50_ms"] > 0
    last = json.loads(result.stdout.splitlines()[-1])
    assert {k: v["unit"] for k, v in last["metrics"].items()} == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(CHECKOUT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = bench("run", "--workload", "ingest", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_contract_command_form():
    command = spec()["command"]
    result = subprocess.run(
        [sys.executable, *command[1:], "--workload", "forensics", "--seed", "2",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=170,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
