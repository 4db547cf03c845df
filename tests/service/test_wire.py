"""Wire forms: DTO JSON round-trips, canonical JSON, HTTP framing.

The API-boundary contract: every payload the facade can emit has a
``to_dict``/``from_dict`` pair that survives a real JSON round-trip —
including float scores *exactly* (Python's repr-based float
serialization is read back to the identical double) — and the framing
layer enforces its byte limits while reading, never after.
"""

import asyncio
import json

import pytest

from repro.core.model import ProvNode
from repro.core.taxonomy import NodeKind
from repro.errors import (
    HeadersTooLargeError,
    PayloadTooLargeError,
    ProtocolError,
)
from repro.service import (
    AggregateStats,
    DeadLetter,
    SearchHit,
    SearchPage,
    ServiceHealth,
    ShardHealth,
    TenantHealth,
    UserStats,
    WireLimits,
    canonical_json,
    encode_response,
    error_payload,
    read_request,
)
from repro.service.events import NodeEvent


def roundtrip(dto):
    """dto -> dict -> json bytes -> dict -> dto, via the real codec."""
    return type(dto).from_dict(json.loads(canonical_json(dto.to_dict())))


class TestDtoRoundTrips:
    def test_search_hit(self):
        hit = SearchHit(
            user_id="alice",
            nid="visit:0007",
            score=0.6618900929190958,
            snippet="**example** page",
            matched_terms=("example", "page"),
        )
        back = roundtrip(hit)
        assert back == hit
        assert back.score == hit.score  # float repr round-trip is exact

    def test_search_page_and_cursor(self):
        page = SearchPage(
            hits=(
                SearchHit(
                    user_id="u1", nid="a", score=1.5,
                    snippet="s", matched_terms=("t",),
                ),
            ),
            cursor="opaque-token",
        )
        assert roundtrip(page) == page

    def test_search_page_exhausted_cursor_is_null(self):
        page = SearchPage(hits=(), cursor=None)
        assert json.loads(canonical_json(page.to_dict()))["cursor"] is None
        assert roundtrip(page) == page

    def test_user_and_aggregate_stats(self):
        stats = UserStats(
            user_id="alice", shard=1, nodes=3, edges=2, intervals=1
        )
        assert roundtrip(stats) == stats
        agg = AggregateStats(
            shards=4, populated_shards=2, nodes=10, edges=8,
            intervals=2, pages=5,
        )
        assert roundtrip(agg) == agg

    def test_service_health_nested(self):
        health = ServiceHealth(
            status="degraded",
            pending=3,
            deadletters=1,
            journal_lag=2,
            cache_hit_rate=0.25,
            cache_epoch=7,
            shards=(
                ShardHealth(
                    shard=0, queue_depth=3, last_flush_age_s=None,
                    poisoned=True,
                ),
                ShardHealth(
                    shard=1, queue_depth=0, last_flush_age_s=1.5,
                    poisoned=False,
                ),
            ),
            tenants=(
                TenantHealth(
                    user_id="alice", shard=0, events_submitted=9,
                    last_write_age_s=0.5,
                ),
            ),
        )
        assert roundtrip(health) == health

    def test_dead_letter_carries_journal_codec_event(self):
        node = ProvNode(
            id="n1", kind=NodeKind.PAGE, timestamp_us=1000,
            label="example", url="https://example.com/a",
        )
        letter = DeadLetter(
            seq=17,
            error="unknown endpoint",
            event=NodeEvent(user_id="alice", node=node),
        )
        back = roundtrip(letter)
        assert back.seq == letter.seq
        assert back.error == letter.error
        assert back.event == letter.event


class TestCanonicalJson:
    def test_equal_dicts_are_identical_bytes(self):
        a = {"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": None}}
        b = {"c": {"x": None, "y": 0.5}, "a": [1, 2], "b": 1}
        assert canonical_json(a) == canonical_json(b)

    def test_no_whitespace_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == b'{"a":2,"b":1}'

    def test_unicode_is_not_escaped(self):
        assert canonical_json({"s": "café"}) == '{"s":"café"}'.encode("utf-8")


class TestEncodeResponse:
    def parse(self, raw):
        head, _sep, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        headers = dict(
            line.split(": ", 1) for line in lines[1:]
        )
        return lines[0], headers, body

    def test_status_line_and_content_length(self):
        raw = encode_response(200, {"ok": True})
        status_line, headers, body = self.parse(raw)
        assert status_line == "HTTP/1.1 200 OK"
        assert int(headers["Content-Length"]) == len(body)
        assert headers["Connection"] == "keep-alive"
        assert json.loads(body) == {"ok": True}

    @pytest.mark.parametrize("status", [400, 408, 413, 431, 503])
    def test_framing_unknown_statuses_close(self, status):
        _line, headers, _body = self.parse(encode_response(status, {}))
        assert headers["Connection"] == "close"

    def test_keep_alive_false_closes(self):
        _line, headers, _body = self.parse(
            encode_response(200, {}, keep_alive=False)
        )
        assert headers["Connection"] == "close"

    def test_extra_headers(self):
        _line, headers, _body = self.parse(
            encode_response(429, {}, extra_headers=(("Retry-After", "2"),))
        )
        assert headers["Retry-After"] == "2"

    def test_error_payload_shape(self):
        payload = error_payload("rate_limited", "slow down", retry_after_s=2)
        assert payload == {
            "error": {
                "code": "rate_limited",
                "message": "slow down",
                "retry_after_s": 2,
            }
        }


def parse_bytes(data, limits=None):
    limits = limits if limits is not None else WireLimits()

    async def go():
        reader = asyncio.StreamReader(limit=limits.max_header_bytes)
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, limits)

    return asyncio.run(go())


class TestReadRequest:
    def test_get_with_query(self):
        request = parse_bytes(
            b"GET /v1/search?term=a%20b&limit=5&empty= HTTP/1.1\r\n"
            b"Host: localhost\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/v1/search"
        assert request.query == {"term": "a b", "limit": "5", "empty": ""}
        assert request.headers["host"] == "localhost"
        assert request.keep_alive()

    def test_post_with_body(self):
        body = b'{"events":[]}'
        request = parse_bytes(
            b"POST /v1/events HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        assert request.body == body
        assert request.json() == {"events": []}

    def test_clean_eof_returns_none(self):
        assert parse_bytes(b"") is None

    def test_connection_close_header(self):
        request = parse_bytes(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive()

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"NONSENSE\r\n\r\n")

    def test_unsupported_version(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"GET / HTTP/9.9\r\n\r\n")

    def test_malformed_header(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    def test_transfer_encoding_rejected(self):
        with pytest.raises(ProtocolError):
            parse_bytes(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )

    def test_bad_content_length(self):
        with pytest.raises(ProtocolError):
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        with pytest.raises(ProtocolError):
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: -3\r\n\r\n")

    def test_oversized_body_refused_from_declaration(self):
        limits = WireLimits(max_body_bytes=8)
        with pytest.raises(PayloadTooLargeError) as info:
            parse_bytes(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
                limits,
            )
        assert info.value.size == 100
        assert info.value.limit == 8

    def test_truncated_body(self):
        with pytest.raises(ProtocolError):
            parse_bytes(
                b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
            )

    def test_overlong_header_line(self):
        limits = WireLimits(max_header_bytes=128)
        with pytest.raises(HeadersTooLargeError):
            parse_bytes(
                b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 1024 + b"\r\n\r\n",
                limits,
            )

    def test_header_block_total_cap(self):
        limits = WireLimits(max_header_bytes=128)
        block = b"".join(
            b"X-%d: aaaaaaaaaaaaaaaa\r\n" % i for i in range(10)
        )
        with pytest.raises(HeadersTooLargeError):
            parse_bytes(b"GET / HTTP/1.1\r\n" + block + b"\r\n", limits)

    def test_invalid_body_json_raises_protocol_error(self):
        request = parse_bytes(
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{no}"
        )
        with pytest.raises(ProtocolError):
            request.json()
