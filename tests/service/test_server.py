"""The HTTP serving layer end to end, over real sockets.

The two acceptance stories:

* **Wire equivalence** — a ranked-search cursor chain driven over
  HTTP produces byte-identical pages (canonical JSON) to the same
  chain driven in-process, under the serial drain and thread workers.
* **Shed before the journal** — requests rejected at admission (rate
  limit, quota, invalid tenant, overload) leave the ``journal.*`` and
  ``ingest.*`` counters exactly where they were: a 429 costs zero
  appends, zero sequences, zero SQLite.
"""

import json
import socket
import time

import http.client

import pytest

from repro.core.model import ProvNode
from repro.core.taxonomy import NodeKind
from repro.service import (
    AdmissionParams,
    ProvenanceServer,
    ProvenanceService,
    ServerParams,
    WireLimits,
    canonical_json,
    encode_event,
)
from repro.service.events import NodeEvent

WORDS = [
    "example", "provenance", "browser", "download", "search",
    "bookmark", "archive", "session",
]


def node_event(user, node_id, ts, label, url=None):
    return NodeEvent(
        user_id=user,
        node=ProvNode(
            id=node_id, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
            label=label, url=url,
        ),
    )


def seed_events(users=4, per_user=20):
    events = []
    for u in range(users):
        user = f"user{u}"
        for i in range(per_user):
            label = f"{WORDS[i % len(WORDS)]} {WORDS[(i + u) % len(WORDS)]}"
            events.append(
                node_event(
                    user, f"n{i:04d}", ts=(i + 1) * 1_000_000, label=label,
                    url=f"https://site{i % 3}.example/{user}/{i}",
                )
            )
    return events


class Client:
    """Tiny keep-alive HTTP client around http.client."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def request(self, method, path, body=None):
        payload = None if body is None else json.dumps(body)
        self.conn.request(method, path, body=payload)
        resp = self.conn.getresponse()
        raw = resp.read()
        return resp.status, dict(resp.getheaders()), raw

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body):
        return self.request("POST", path, body)

    def close(self):
        self.conn.close()


@pytest.fixture()
def served(tmp_path):
    """A seeded service behind a server, default admission."""
    with ProvenanceService(
        tmp_path / "svc", shards=2, workers=2
    ) as service:
        with ProvenanceServer(service) as server:
            client = Client(server.port)
            status, _headers, _body = client.post(
                "/v1/events",
                {"events": [encode_event(e) for e in seed_events()]},
            )
            assert status == 200
            assert client.post("/v1/flush", {})[0] == 200
            yield service, server, client
            client.close()


def drain_wire_pages(client, term, *, user=None, limit=5, max_pages=50):
    """Raw response bodies of a full cursor chain over the wire."""
    bodies = []
    cursor = None
    for _ in range(max_pages):
        path = f"/v1/search/ranked?term={term}&limit={limit}"
        if user is not None:
            path += f"&user={user}"
        if cursor is not None:
            path += f"&cursor={cursor}"
        status, _headers, raw = client.get(path)
        assert status == 200, raw
        bodies.append(raw)
        cursor = json.loads(raw)["cursor"]
        if cursor is None:
            return bodies
    raise AssertionError("cursor chain never exhausted")


class TestWireEquivalence:
    @pytest.mark.parametrize(
        "workers",
        [pytest.param(0, id="serial"), pytest.param(2, id="thread:2")],
    )
    def test_ranked_pages_byte_identical_to_in_process(
        self, tmp_path, workers
    ):
        with ProvenanceService(
            tmp_path / "svc", shards=2, workers=workers
        ) as service:
            for event in seed_events():
                service.record_event(event)
            service.flush()
            # In-process chain first: collect every page as canonical
            # JSON bytes.
            expected = []
            cursor = None
            while True:
                page = service.ranked_search(
                    "example provenance", limit=5, cursor=cursor
                )
                expected.append(canonical_json(page.to_dict()))
                cursor = page.cursor
                if cursor is None:
                    break
            assert len(expected) > 1  # the chain must actually paginate
            with ProvenanceServer(service) as server:
                client = Client(server.port)
                got = drain_wire_pages(
                    client, "example%20provenance", limit=5
                )
                client.close()
        assert got == expected

    def test_tenant_scoped_chain_matches_too(self, served):
        service, _server, client = served
        expected = []
        cursor = None
        while True:
            page = service.ranked_search(
                "example", user_id="user1", limit=3, cursor=cursor
            )
            expected.append(canonical_json(page.to_dict()))
            cursor = page.cursor
            if cursor is None:
                break
        got = drain_wire_pages(client, "example", user="user1", limit=3)
        assert got == expected

    def test_plain_reads_match_in_process(self, served):
        service, _server, client = served
        status, _h, raw = client.get("/v1/search?user=user0&term=example")
        assert status == 200
        assert json.loads(raw)["hits"] == service.search("user0", "example")
        status, _h, raw = client.get("/v1/stats?user=user0")
        assert json.loads(raw) == service.stats("user0").to_dict()
        status, _h, raw = client.get("/v1/search/global?term=example&limit=10")
        assert json.loads(raw)["hits"] == [
            list(row) for row in service.global_search("example", limit=10)
        ]
        status, _h, raw = client.get("/v1/stats/aggregate")
        assert json.loads(raw) == service.aggregate_stats().to_dict()
        status, _h, raw = client.get("/v1/health")

        def ageless(payload):
            # wall-clock age fields differ between the two snapshots
            for shard in payload["shards"]:
                shard.pop("last_flush_age_s", None)
            for tenant in payload["tenants"]:
                tenant.pop("last_write_age_s", None)
            return payload

        assert ageless(json.loads(raw)) == ageless(
            service.health().to_dict()
        )


class TestErrorSurface:
    def test_unknown_path_is_404(self, served):
        _service, _server, client = served
        status, _h, raw = client.get("/v1/nope")
        assert status == 404
        assert json.loads(raw)["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, served):
        _service, _server, client = served
        status, _h, raw = client.request("DELETE", "/v1/health")
        assert status == 405
        assert json.loads(raw)["error"]["code"] == "method_not_allowed"

    def test_invalid_tenant_rejected_at_boundary(self, served):
        service, _server, client = served
        before = service.metrics_snapshot()["counters"]["ingest.events"]
        status, _h, raw = client.get("/v1/stats?user=::bad::")
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "invalid_tenant"
        event = encode_event(node_event("ok", "n1", 1, "x"))
        event["u"] = "::bad::"
        status, _h, raw = client.post("/v1/events", {"events": [event]})
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "invalid_tenant"
        after = service.metrics_snapshot()["counters"]["ingest.events"]
        assert after == before  # rejected before the journal

    def test_bad_cursor_is_400(self, served):
        _service, _server, client = served
        status, _h, raw = client.get(
            "/v1/search/ranked?term=example&cursor=garbage"
        )
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "cursor_invalid"

    def test_unknown_node_is_404(self, served):
        _service, _server, client = served
        status, _h, raw = client.get("/v1/ancestors?user=user0&node=missing")
        assert status == 404
        assert json.loads(raw)["error"]["code"] == "node_not_found"

    def test_malformed_json_body_is_400(self, served):
        _service, _server, client = served
        client.conn.request("POST", "/v1/events", body="{not json")
        resp = client.conn.getresponse()
        raw = resp.read()
        assert resp.status == 400
        assert json.loads(raw)["error"]["code"] == "bad_request"

    def test_missing_query_param_is_400(self, served):
        _service, _server, client = served
        status, _h, raw = client.get("/v1/search?user=user0")
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "bad_request"

    def test_unexpected_exception_is_opaque_500_with_incident(
        self, served, monkeypatch
    ):
        service, _server, client = served

        def boom():
            raise RuntimeError("secret internal detail")

        monkeypatch.setattr(service, "aggregate_stats", boom)
        status, _h, raw = client.get("/v1/stats/aggregate")
        assert status == 500
        error = json.loads(raw)["error"]
        assert error["code"] == "internal"
        assert "secret" not in raw.decode()  # opaque to the client
        incident_id = error["incident_id"]
        status, _h, raw = client.get("/v1/slow_ops")
        assert status == 200
        records = json.loads(raw)["slow_ops"]
        assert any(
            r.get("incident_id") == incident_id
            and "secret internal detail" in r.get("error", "")
            for r in records
        )


class TestFramingLimits:
    def test_oversized_body_is_413_and_closes(self, tmp_path):
        with ProvenanceService(tmp_path / "svc", shards=2) as service:
            params = ServerParams(limits=WireLimits(max_body_bytes=64))
            with ProvenanceServer(service, params) as server:
                client = Client(server.port)
                status, headers, raw = client.post(
                    "/v1/events", {"pad": "x" * 200}
                )
                assert status == 413
                assert json.loads(raw)["error"]["code"] == "payload_too_large"
                assert headers["Connection"] == "close"
                client.close()

    def test_oversized_headers_are_431(self, tmp_path):
        with ProvenanceService(tmp_path / "svc", shards=2) as service:
            params = ServerParams(limits=WireLimits(max_header_bytes=256))
            with ProvenanceServer(service, params) as server:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                ) as sock:
                    sock.sendall(
                        b"GET /v1/health HTTP/1.1\r\nX-Big: "
                        + b"a" * 2048 + b"\r\n\r\n"
                    )
                    raw = sock.recv(4096)
        assert b"431" in raw.split(b"\r\n", 1)[0]
        assert b"headers_too_large" in raw

    def test_slowloris_times_out_with_408(self, tmp_path):
        with ProvenanceService(tmp_path / "svc", shards=2) as service:
            params = ServerParams(read_timeout_s=0.3)
            with ProvenanceServer(service, params) as server:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                ) as sock:
                    # A request line that never finishes: the read
                    # budget, not the client, decides when it ends.
                    sock.sendall(b"GET /v1/health HT")
                    started = time.monotonic()
                    raw = sock.recv(4096)
                    waited = time.monotonic() - started
                    assert b"408" in raw.split(b"\r\n", 1)[0]
                    assert waited < 5.0
                    assert sock.recv(4096) == b""  # server closed


class TestAdmissionOverWire:
    def test_rate_limit_429_with_retry_after(self, tmp_path):
        with ProvenanceService(tmp_path / "svc", shards=2) as service:
            params = ServerParams(
                admission=AdmissionParams(rate_per_s=0.5, burst=2)
            )
            with ProvenanceServer(service, params) as server:
                client = Client(server.port)
                events = [
                    encode_event(node_event("alice", f"n{i}", i + 1, "x"))
                    for i in range(3)
                ]
                status, _h, _raw = client.post(
                    "/v1/events", {"events": events[:2]}
                )
                assert status == 200
                status, headers, raw = client.post(
                    "/v1/events", {"events": events[2:]}
                )
                assert status == 429
                error = json.loads(raw)["error"]
                assert error["code"] == "rate_limited"
                assert error["retry_after_s"] == pytest.approx(2.0, abs=0.1)
                assert headers["Retry-After"] == "2"
                client.close()

    def test_quota_429(self, tmp_path):
        with ProvenanceService(tmp_path / "svc", shards=2) as service:
            params = ServerParams(
                admission=AdmissionParams(tenant_quota_events=3)
            )
            with ProvenanceServer(service, params) as server:
                client = Client(server.port)
                events = [
                    encode_event(node_event("alice", f"n{i}", i + 1, "x"))
                    for i in range(4)
                ]
                assert client.post(
                    "/v1/events", {"events": events[:3]}
                )[0] == 200
                status, _h, raw = client.post(
                    "/v1/events", {"events": events[3:]}
                )
                assert status == 429
                code = json.loads(raw)["error"]["code"]
                assert code == "tenant_quota_exceeded"
                client.close()

    def test_connection_cap_503(self, tmp_path):
        with ProvenanceService(tmp_path / "svc", shards=2) as service:
            params = ServerParams(
                admission=AdmissionParams(max_connections=1)
            )
            with ProvenanceServer(service, params) as server:
                first = Client(server.port)
                assert first.get("/v1/health")[0] == 200  # holds the socket
                second = Client(server.port)
                status, _h, raw = second.get("/v1/health")
                assert status == 503
                assert json.loads(raw)["error"]["code"] == "connection_limit"
                second.close()
                first.close()

    def test_rejected_writes_never_reach_the_journal(self, tmp_path):
        """The tentpole invariant, measured: under a sealed bucket the
        429 count rises while every journal/ingest counter stays flat."""
        with ProvenanceService(
            tmp_path / "svc", shards=2, workers=2
        ) as service:
            params = ServerParams(
                admission=AdmissionParams(rate_per_s=0.0, burst=4)
            )
            with ProvenanceServer(service, params) as server:
                client = Client(server.port)
                events = [
                    encode_event(node_event("alice", f"n{i}", i + 1, "x"))
                    for i in range(4)
                ]
                assert client.post("/v1/events", {"events": events})[0] == 200
                assert client.post("/v1/flush", {})[0] == 200
                before = service.metrics_snapshot()["counters"]
                rejected = 0
                for _ in range(10):  # the bucket is sealed: all shed
                    status, _h, _raw = client.post(
                        "/v1/events", {"events": events}
                    )
                    assert status == 429
                    rejected += 1
                after = service.metrics_snapshot()["counters"]
                for name in (
                    "ingest.events",
                    "ingest.batches",
                    "journal.group_commits",
                    "journal.fsyncs",
                ):
                    assert after.get(name, 0) == before.get(name, 0), name
                assert (
                    after["http.rejected{reason=rate_limited}"]
                    - before.get("http.rejected{reason=rate_limited}", 0)
                ) == rejected
                # ...and the journal file itself did not grow
                assert service.journal.last_seq == 4
                client.close()


class TestOperationsOverWire:
    def test_deadletters_empty_and_unknown_redrive(self, served):
        _service, _server, client = served
        status, _h, raw = client.get("/v1/deadletters")
        assert status == 200
        assert json.loads(raw)["deadletters"] == []
        status, _h, raw = client.post("/v1/deadletters/redrive", {"seq": 999})
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "config_invalid"

    def test_expire_before_over_wire(self, served):
        service, _server, client = served
        nodes_before = service.stats("user0").nodes
        status, _h, raw = client.post(
            "/v1/retention/expire_before",
            {"user_id": "user0", "cutoff_us": 10 * 1_000_000},
        )
        assert status == 200
        report = json.loads(raw)
        assert report["nodes_removed"] > 0
        assert report["nodes_after"] == nodes_before - report["nodes_removed"]
        assert service.stats("user0").nodes == report["nodes_after"]

    def test_forget_site_over_wire(self, served):
        service, _server, client = served
        status, _h, raw = client.post(
            "/v1/retention/forget_site",
            {"user_id": "user1", "site": "site0.example"},
        )
        assert status == 200
        assert json.loads(raw)["nodes_removed"] > 0
        for _user, nid in service.global_search("site0", limit=100):
            assert not nid.startswith("user1")

    def test_integrity_route_verifies_live_journal(self, served):
        _service, _server, client = served
        status, _h, raw = client.get("/v1/integrity")
        assert status == 200
        report = json.loads(raw)
        assert report["ok"] is True
        assert report["first_error"] is None
        assert report["attested_seq"] > 0

    def test_integrity_route_pinpoints_corruption(self, served):
        """Corrupt a journaled record on disk and the route reports
        (segment, offset, reason) end to end."""
        service, _server, client = served
        # Land fresh records in the active journal file (the earlier
        # flush compacted everything before them away).
        status, _h, _raw = client.post(
            "/v1/events",
            {"events": [encode_event(node_event(
                "user0", f"x{i}", ts=99 + i, label="tamper bait",
            )) for i in range(5)]},
        )
        assert status == 200
        path = service.journal.path
        data = open(path, "rb").read()
        assert b"tamper bait" in data
        open(path, "wb").write(
            data.replace(b"tamper bait", b"tamper BAIT", 1))
        status, _h, raw = client.get("/v1/integrity")
        assert status == 200
        report = json.loads(raw)
        assert report["ok"] is False
        err = report["first_error"]
        assert err["reason"] == "chain_mismatch"
        assert err["segment"] == "ingest.journal"
        assert isinstance(err["offset"], int)

    def test_audit_report_over_wire(self, served):
        _service, _server, client = served
        status, _h, raw = client.get("/v1/audit/report?user=user0")
        assert status == 200
        report = json.loads(raw)
        assert report["format"] == "repro-audit-report"
        assert report["verify"]["ok"] is True
        assert report["counts"]["nodes"] == 20
        assert len(report["timeline"]) == 20
        from repro.service import report_digest_ok

        assert report_digest_ok(report)
        # Byte-stable: the same history serves the same bytes.
        _status, _h2, raw2 = client.get("/v1/audit/report?user=user0")
        assert raw2 == raw

    def test_audit_report_requires_user(self, served):
        _service, _server, client = served
        status, _h, raw = client.get("/v1/audit/report")
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "bad_request"

    def test_metrics_endpoint_carries_http_histograms(self, served):
        _service, _server, client = served
        client.get("/v1/health")
        status, _h, raw = client.get("/v1/metrics")
        assert status == 200
        snapshot = json.loads(raw)
        assert "http.health" in snapshot["histograms"]
        assert snapshot["histograms"]["http.health"]["count"] >= 1
        assert snapshot["counters"]["http.requests{endpoint=health}"] >= 1


class TestConnectionBehaviour:
    def test_keep_alive_serves_many_requests_on_one_socket(self, served):
        _service, _server, client = served
        for _ in range(5):
            assert client.get("/v1/health")[0] == 200

    def test_connection_close_is_honoured(self, served):
        _service, server, _client = served
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            chunks = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks += chunk
        assert b"200" in chunks.split(b"\r\n", 1)[0]
        assert b"Connection: close" in chunks
