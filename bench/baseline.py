"""Record ``bench/BENCH_baseline.json``: ``python -m bench baseline``.

Two sets of three untraced runs of every workload at seed 1 (set A,
then set B), one untraced run at the hold-out seed 2 and one traced
run at seed 1.  Workloads alternate within every pass, so a slow spell
of the host spreads over all of them.  For every gated metric (each
end-to-end metric, and each per-workload metric with a gate) and
workload the file keeps the median and quartiles over both sets, the
drift of set B's median from set A's, the hold-out value and the
tracing overhead (traced over the untraced median, minus one).  The
traced run's per-layer ledger and which wrappers fired ride along.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

from bench.stats import quartiles

SEED = 1
HOLDOUT_SEED = 2
RUNS_PER_SET = 3
OUTPUT = Path(__file__).resolve().parent / "BENCH_baseline.json"


def record_baseline(args) -> int:
    from bench.__main__ import corpus_of
    from bench.client import CheckFailed
    from bench.compare import gated, values
    from bench.runs import run_one
    from bench.workloads import WORKLOADS

    corpus = corpus_of(smoke=False)

    def each(seed: int, trace: bool = False) -> dict[str, dict]:
        runs = {}
        for workload in WORKLOADS:
            sys.stderr.write(f"baseline: {workload} seed {seed} trace {trace}\n")
            runs[workload] = run_one(workload, corpus, seed, args.seconds, trace)
        return runs

    try:
        sets = {
            name: [each(SEED) for _ in range(RUNS_PER_SET)]
            for name in ("A", "B")
        }
        holdout = each(HOLDOUT_SEED)
        traced = each(SEED, trace=True)
    except CheckFailed as exc:
        sys.stderr.write(f"baseline: check failed: {exc}\n")
        return 1

    workloads = {}
    for workload in WORKLOADS:
        a_runs = [runs[workload] for runs in sets["A"]]
        b_runs = [runs[workload] for runs in sets["B"]]
        metrics = {}
        for name, gate in gated(a_runs[0]).items():
            a, b = values(a_runs, name), values(b_runs, name)
            q1, median, q3 = quartiles(a + b)
            metrics[name] = {
                "gate": gate,
                "median": median,
                "q1": q1,
                "q3": q3,
                "set_a": a,
                "set_b": b,
                "drift": statistics.median(b) / statistics.median(a) - 1,
                "holdout_seed2": values([holdout[workload]], name)[0],
                "tracing_overhead": (
                    values([traced[workload]], name)[0] / median - 1
                ),
            }
        workloads[workload] = {
            "operations": a_runs[0]["operations"],
            "metrics": metrics,
            "named": {
                name: {"unit": entry["unit"], "samples": entry["samples"]}
                for name, entry in a_runs[0]["named"].items()
            },
            "per_layer_traced": traced[workload]["per_layer"],
            "per_layer_from_coverage": (
                traced[workload]["trace_details"]["from_coverage"]
            ),
            "wrappers_fired": traced[workload]["trace_details"]["fired"],
            "attempted": sum(r["attempted"] for r in a_runs + b_runs),
            "failed": sum(r["failed"] for r in a_runs + b_runs),
            "holdout_failed": holdout[workload]["failed"],
        }
    baseline = {
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seconds": args.seconds,
        "seeds": {"runs": SEED, "holdout": HOLDOUT_SEED},
        "runs_per_set": RUNS_PER_SET,
        "corpus": a_runs[0]["corpus"],
        "workloads": workloads,
    }
    OUTPUT.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    return 0
