"""HTTP-lite framing: request encoding/parsing, NDJSON events, and
address syntax.  Pure protocol tests — no sockets, no daemon."""

import asyncio
import json

import pytest

from repro.errors import ReproError
from repro.serve import parse_address
from repro.serve.protocol import (
    PROTOCOL,
    ProtocolError,
    encode_request,
    event_bytes,
    parse_event,
    read_request,
    response_header,
    verb_of,
)


def parse_raw(raw: bytes):
    """Feed raw bytes through read_request as a client would send
    them."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)
    return asyncio.run(go())


class TestFraming:
    def test_encode_then_read_round_trips(self):
        doc = {"workload": "fib", "sim": {"kernel": "event"}}
        method, path, body = parse_raw(
            encode_request("/v1/evaluate", doc))
        assert (method, path) == ("POST", "/v1/evaluate")
        assert body == doc

    def test_empty_body_allowed(self):
        method, path, body = parse_raw(
            encode_request("/v1/health", None))
        assert (method, path) == ("POST", "/v1/health")
        assert body is None

    def test_port_scan_probe_is_silent(self):
        assert parse_raw(b"") == ("", "", None)

    def test_truncated_header_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="truncated"):
            parse_raw(b"POST /v1/health HTTP/1.0\r\nContent-")

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError, match="malformed"):
            parse_raw(b"GARBAGE\r\n\r\n")

    def test_oversized_body_rejected_before_read(self):
        raw = (b"POST /v1/evaluate HTTP/1.0\r\n"
               b"Content-Length: 999999999999\r\n\r\n")
        with pytest.raises(ProtocolError, match="too large"):
            parse_raw(raw)

    def test_undecodable_json_body(self):
        raw = (b"POST /v1/evaluate HTTP/1.0\r\n"
               b"Content-Length: 3\r\n\r\n{x}")
        with pytest.raises(ProtocolError, match="undecodable"):
            parse_raw(raw)

    @pytest.mark.parametrize("value", ["abc", "-5", "1e3", ""])
    def test_malformed_content_length_is_protocol_error(self, value):
        raw = (b"POST /v1/evaluate HTTP/1.0\r\n"
               b"Content-Length: " + value.encode() + b"\r\n\r\n{}")
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse_raw(raw)

    def test_response_header_is_http(self):
        head = response_header()
        assert head.startswith(b"HTTP/1.0 200 OK\r\n")
        assert b"application/x-ndjson" in head
        assert head.endswith(b"\r\n\r\n")


class TestEvents:
    def test_event_bytes_is_canonical_ndjson(self):
        line = event_bytes({"b": 1, "event": "hello", "a": 2})
        assert line.endswith(b"\n")
        # sort_keys: the serialization is byte-stable, which is what
        # lets dedup subscribers literally share payload bytes.
        assert line == event_bytes({"a": 2, "event": "hello", "b": 1})
        assert json.loads(line) == {"a": 2, "b": 1, "event": "hello"}

    def test_parse_event_round_trips(self):
        doc = {"event": "heartbeat", "elapsed_s": 0.5}
        assert parse_event(event_bytes(doc).strip()) == doc

    def test_parse_event_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            parse_event(b"not json")
        with pytest.raises(ProtocolError, match="event field"):
            parse_event(b'{"hello": 1}')


class TestVerbs:
    def test_known_verbs_map(self):
        assert verb_of("/v1/evaluate") == "evaluate"
        assert verb_of("/v1/evaluate_many") == "evaluate_many"
        assert verb_of("/v1/explore?x=1") == "explore"

    def test_unknown_path_lists_the_verbs(self):
        with pytest.raises(ProtocolError, match="/v1/evaluate"):
            verb_of("/v1/bogus")
        with pytest.raises(ProtocolError):
            verb_of("/evaluate")


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.2:9000") == \
            ("tcp", ("10.0.0.2", 9000))

    def test_port_only_defaults_host(self):
        assert parse_address(":8651") == ("tcp", ("127.0.0.1", 8651))
        assert parse_address("8651") == ("tcp", ("127.0.0.1", 8651))

    def test_unix_path(self):
        assert parse_address("unix:/tmp/s.sock") == \
            ("unix", "/tmp/s.sock")

    def test_bad_addresses(self):
        for bad in ("", "unix:", "host:notaport"):
            with pytest.raises(ReproError):
                parse_address(bad)


def test_protocol_identity_pinned():
    # Version-skew detection on both sides keys off this string.
    assert PROTOCOL == "repro.serve/1"
