"""One workload run as a record, and how a record is printed."""

from __future__ import annotations

import json
import os


def run_one(workload: str, corpus, seed: int, seconds: float,
            trace: bool) -> dict:
    """One workload run as a record (raises CheckFailed on a bad output)."""
    from bench import ledger
    from bench.client import CheckFailed
    from bench.corpus import SMOKE
    from bench.workloads import OPERATIONS, RUNNERS, TAIL, Context

    ctx = Context(workload, seed, seconds, trace, corpus)
    try:
        RUNNERS[workload](ctx)
        ctx.conclude()
        per_layer, details = ledger.build(ctx) if trace else (None, None)
    except CheckFailed as exc:
        incidents = ctx.incidents()
        if not incidents:
            raise
        raise CheckFailed(f"{exc}; server incidents: {incidents}") from exc
    finally:
        ctx.close()
    failed = sum(not sample.ok for sample in ctx.samples)
    throughput_of, primary, secondary = OPERATIONS[workload]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": corpus.shape == SMOKE,
        "cpus": os.cpu_count(),
        "corpus": {
            "tenants": len(corpus.tenants),
            "events": corpus.events,
            "largest_tenant_nodes": max(len(t.nodes) for t in corpus.tenants),
            "gen_s": corpus.gen_s,
            "preload_s": corpus.preload_s,
        },
        "operations": {
            "throughput": throughput_of,
            "primary": primary,
            "tail": f"p{TAIL}",
            "secondary": secondary,
        },
        "attempted": len(ctx.samples),
        "failed": failed,
        "end_to_end": ctx.e2e,
        "named": {
            name: {"value": value, "unit": unit, "samples": count,
                   "gate": gate}
            for name, (value, unit, count, gate) in ctx.named.items()
        },
        "per_layer": per_layer,
        "trace_details": details,
    }


def print_record(record: dict) -> None:
    from bench.ledger import render
    from bench.workloads import END_TO_END, MAX_LATENESS_MS

    workload = record["workload"]
    corpus = record["corpus"]
    ops = record["operations"]
    print(
        f"# {workload}: seed {record['seed']}, {corpus['events']} events over"
        f" {corpus['tenants']} tenants (largest {corpus['largest_tenant_nodes']}"
        f" nodes; cache built with gen_s {corpus['gen_s']:.1f}, preload_s"
        f" {corpus['preload_s']['full']:.1f}), trace {int(record['trace'])},"
        f" cpus {record['cpus']}"
    )
    print(
        f"# throughput counts {ops['throughput']}; primary = {ops['primary']}"
        f" (tail = {ops['tail']}); secondary = {ops['secondary']}"
    )
    for name, unit in END_TO_END.items():
        print(f"{workload} {name:<22} {record['end_to_end'][name]:>14.4f} {unit}")
    for name, entry in record["named"].items():
        count = "" if entry["samples"] is None else f" (n={entry['samples']})"
        print(
            f"{workload} named {name:<22} {entry['value']:>14.4f}"
            f" {entry['unit']}{count}"
        )
    late = record["named"].get("lateness_p99_ms")
    if late and late["value"] > MAX_LATENESS_MS:
        print(f"# WARNING: generator lateness p99 {late['value']:.1f} ms >"
              f" {MAX_LATENESS_MS} ms: requests went out late, so this run"
              " did not offer its schedule")
    if record["per_layer"] is not None:
        for line in render(record["per_layer"], record["trace_details"]):
            print(line)
    print(json.dumps(record, sort_keys=True))


def result_line(record: dict) -> str:
    from bench.ledger import PER_LAYER
    from bench.workloads import END_TO_END

    if record["trace"]:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": record["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return json.dumps(
        {
            "correct": True,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )
