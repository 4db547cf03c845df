"""The service over the wire: HTTP serving with admission control.

Boots a `ProvenanceService` behind `ProvenanceServer` and speaks to it
the way a real client would — `http.client` over a loopback socket:
submit a batch of events, page through ranked search with the cursor
(and check the wire pages are byte-identical to in-process calls),
probe health and metrics, then restart the front door with a tight
rate limit and watch admission shed a burst with 429s while the
journal stays untouched — the serving layer's core promise.

Usage::

    python examples/http_service.py
"""

import http.client
import json
import tempfile

from repro.core.model import ProvNode
from repro.core.taxonomy import NodeKind
from repro.service import (
    AdmissionParams,
    ProvenanceServer,
    ProvenanceService,
    ServerParams,
    canonical_json,
)
from repro.service.events import NodeEvent, encode_event

WORDS = ["wine", "cellar", "booking", "tickets", "harvest", "vintage"]


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), raw
    finally:
        conn.close()


def seed_events(user_id, count):
    return [
        encode_event(NodeEvent(user_id, ProvNode(
            id=f"{user_id}-n{i}", kind=NodeKind.PAGE_VISIT,
            timestamp_us=(i + 1) * 1_000_000,
            label=f"{WORDS[i % len(WORDS)]} note {i}",
            url=f"http://{WORDS[i % len(WORDS)]}.example/{i}",
        )))
        for i in range(count)
    ]


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="prov-http-") as root:
        service = ProvenanceService(root, shards=4, workers=2)

        with ProvenanceServer(service) as server:
            print(f"Serving at {server.base_url}")

            print("\nPOST /v1/events (3 tenants x 24 events)...")
            for user in ("alice", "bob", "carol"):
                status, _, raw = request(
                    server.port, "POST", "/v1/events",
                    {"events": seed_events(user, 24)},
                )
                accepted = json.loads(raw)["accepted"]
                print(f"  {user}: {status} accepted={accepted}")

            print("\nGET /v1/search/ranked — paging with the cursor:")
            wire_pages, cursor, suffix = [], None, ""
            while True:
                status, _, raw = request(
                    server.port, "GET",
                    f"/v1/search/ranked?term=wine&limit=5{suffix}",
                )
                page = json.loads(raw)
                wire_pages.append(raw)
                print(f"  page {len(wire_pages)}: {status},"
                      f" {len(page['hits'])} hits,"
                      f" cursor={'yes' if page['cursor'] else 'exhausted'}")
                cursor = page["cursor"]
                if cursor is None:
                    break
                suffix = f"&cursor={cursor}"

            print("\nSame chain in-process — wire bytes must match:")
            page, identical = service.ranked_search("wine", limit=5), 0
            for raw in wire_pages:
                identical += raw == canonical_json(page.to_dict())
                if page.cursor is not None:
                    page = service.ranked_search(
                        "wine", limit=5, cursor=page.cursor)
            print(f"  {identical}/{len(wire_pages)} pages byte-identical")

            status, _, raw = request(server.port, "GET", "/v1/health")
            health = json.loads(raw)
            print(f"\nGET /v1/health: {status} status={health['status']}"
                  f" tenants={len(health['tenants'])}")

            status, _, raw = request(server.port, "GET", "/v1/metrics")
            counters = json.loads(raw)["counters"]
            print(f"GET /v1/metrics: ingest.events="
                  f"{counters.get('ingest.events', 0)}"
                  f" http.admitted={counters.get('http.admitted', 0)}")

        print("\nRestarting the front door with rate_per_s=1, burst=8...")
        throttled = ProvenanceServer(service, ServerParams(
            admission=AdmissionParams(rate_per_s=1.0, burst=8),
        ))
        with throttled as server:
            seq_before = service.journal.last_seq
            admitted = rejected = 0
            for i in range(20):
                status, headers, raw = request(
                    server.port, "POST", "/v1/events",
                    {"events": seed_events("dave", 1)},
                )
                if status == 200:
                    admitted += 1
                else:
                    rejected += 1
                    if rejected == 1:
                        body = json.loads(raw)["error"]
                        print(f"  first rejection: {status}"
                              f" code={body['code']}"
                              f" Retry-After={headers.get('Retry-After')}")
            appends = service.journal.last_seq - seq_before
            print(f"  20 single-event posts: {admitted} admitted,"
                  f" {rejected} shed with 429")
            print(f"  journal appends: {appends}"
                  f" (exactly the admitted events — rejected batches"
                  f" never reach the journal)")

        service.close()


if __name__ == "__main__":
    main()
