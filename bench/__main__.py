"""Command line: ``python -m bench {run,trace,compare,baseline}``.

``run`` drives one workload (``--workload``) or all four and prints,
per workload, every end-to-end metric by name with its unit, the
per-workload metrics with their sample counts, one full JSON record
(the line ``compare`` reads), and as the very last line the result
object: ``{"correct", "attempted", "failed", "metrics"}`` — end-to-end
metrics, or per-layer metrics with ``--trace 1``.  A failed output
check prints why on stderr and exits 1 without a result.

``trace`` runs each workload untraced and then traced, and prints the
per-layer ledger and the tracing overhead per end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys

from bench.client import SRC

USAGE_ERROR = 2
#: How long one workload run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 20.0


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"bench: no program sources at {SRC}; run from a full checkout\n"
        )
        sys.exit(USAGE_ERROR)
    sys.path.insert(0, str(SRC))


def corpus_of(smoke: bool):
    """The corpus, from the checkout's cache (built there if missing).

    The corpus is a few hundred thousand long-lived objects; frozen out
    of the collector, they cost no full-collection pauses in the
    client while it times requests.
    """
    from bench.corpus import FULL, SMOKE, load_corpus

    corpus = load_corpus(SMOKE if smoke else FULL)
    gc.collect()
    gc.freeze()
    return corpus


def command_run(args) -> int:
    from bench.client import CheckFailed
    from bench.runs import print_record, result_line, run_one
    from bench.workloads import WORKLOADS

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    corpus = corpus_of(args.smoke)
    for workload in workloads:
        try:
            record = run_one(workload, corpus, args.seed, args.seconds,
                             bool(args.trace))
        except CheckFailed as exc:
            sys.stderr.write(f"bench: {workload}: check failed: {exc}\n")
            return 1
        print_record(record)
        print(result_line(record), flush=True)
    return 0


def command_trace(args) -> int:
    from bench.client import CheckFailed
    from bench.runs import print_record, run_one
    from bench.workloads import END_TO_END, WORKLOADS

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    corpus = corpus_of(args.smoke)
    for workload in workloads:
        try:
            plain = run_one(workload, corpus, args.seed, args.seconds, False)
            traced = run_one(workload, corpus, args.seed, args.seconds, True)
        except CheckFailed as exc:
            sys.stderr.write(f"bench: {workload}: check failed: {exc}\n")
            return 1
        print_record(traced)
        print(f"# {workload}: tracing overhead (traced / untraced - 1)")
        for name in END_TO_END:
            base = plain["end_to_end"][name]
            with_spans = traced["end_to_end"][name]
            print(
                f"{workload} overhead {name:<22} {with_spans / base - 1:>+9.1%}"
                f"  ({base:.4f} -> {with_spans:.4f})"
            )
    return 0


def command_compare(args) -> int:
    from bench.compare import main as compare_main

    return compare_main(args)


def command_baseline(args) -> int:
    from bench.baseline import record_baseline

    return record_baseline(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    def workload_options(sub) -> None:
        sub.add_argument("--workload", choices=(
            "ingest", "recall", "mixed", "forensics"))
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=RUN_SECONDS)
        sub.add_argument("--smoke", action="store_true",
                         help="tiny corpus, same code paths")

    run = commands.add_parser("run", help="measure and print metrics")
    workload_options(run)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(handler=command_run)

    trace = commands.add_parser("trace", help="per-layer ledger + overhead")
    workload_options(trace)
    trace.set_defaults(handler=command_trace)

    compare = commands.add_parser("compare", help="parent vs change verdicts")
    compare.add_argument("--parent", nargs="+", required=True,
                         help="files holding the parent's run output")
    compare.add_argument("--change", nargs="+", required=True,
                         help="files holding the change's run output")
    compare.add_argument("--claim", action="append", default=[],
                         help="metric@workload claimed to improve")
    compare.set_defaults(handler=command_compare)

    baseline = commands.add_parser("baseline", help="record BENCH_baseline.json")
    baseline.add_argument("--seconds", type=float, default=RUN_SECONDS)
    baseline.set_defaults(handler=command_baseline)

    args = parser.parse_args(argv)
    if args.command != "compare":
        _import_program()
    # SIGTERM unwinds like an exception, so every run's clean-up kills
    # and reaps the server children it started.
    signal.signal(signal.SIGTERM, lambda signo, _frame: sys.exit(128 + signo))
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
