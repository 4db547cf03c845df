"""The server child: one ``ProvenanceService`` behind one ``ProvenanceServer``.

Run by the benchmark as::

    python -m bench.server --root DIR [--preload EVENTS.jsonl] [--spans OUT.jsonl]

The service is ``ProvenanceService(root, shards=4, fsync=True)`` with
every other setting at its default (thread workers); the server is
``ProvenanceServer`` with default parameters on an ephemeral port.
``--preload`` ingests a JSONL file of encoded events in-process before
serving (two submitter threads, tenants split between them so each
tenant's order holds).  ``--spans`` installs the span recorders of
:mod:`bench.spans` after the preload and writes the spans there on
exit.  Once serving, the child prints ``{"port": N, "workers": W}`` on
one stdout line; SIGTERM stops it cleanly (server, then service, which
flushes and closes).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from repro.service import ProvenanceServer, ProvenanceService, decode_event

from bench.spans import SpanRecorder

SHARDS = 4


def preload(service: ProvenanceService, path: str) -> int:
    """Ingest every event of *path*; returns the count."""
    by_user: dict[str, list] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = decode_event(json.loads(line))
            by_user.setdefault(event.user_id, []).append(event)
    halves: list[list] = [[], []]
    for index, user in enumerate(sorted(by_user)):
        halves[index % 2].append(by_user[user])
    errors: list[BaseException] = []

    def submit(streams: list[list]) -> None:
        try:
            for stream in streams:
                for event in stream:
                    service.record_event(event)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(half,)) for half in halves]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    service.flush()
    return sum(len(stream) for stream in by_user.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.server")
    parser.add_argument("--root", required=True)
    parser.add_argument("--preload")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    stopping = threading.Event()
    signal.signal(signal.SIGTERM, lambda _signo, _frame: stopping.set())
    recorder = SpanRecorder() if args.spans else None
    service = ProvenanceService(args.root, shards=SHARDS, fsync=True)
    try:
        if args.preload:
            preload(service, args.preload)
        if recorder is not None:
            recorder.install()
        server = ProvenanceServer(service).start()
        try:
            sys.stdout.write(
                json.dumps(
                    {"port": server.port, "workers": service.ingest.workers}
                )
                + "\n"
            )
            sys.stdout.flush()
            while not stopping.wait(0.2):
                pass
        finally:
            server.stop()
    finally:
        service.close()
    if recorder is not None:
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
