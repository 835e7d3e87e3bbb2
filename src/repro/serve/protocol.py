"""HTTP-lite framing for the evaluation daemon.

The daemon speaks a deliberately small HTTP/1.0 subset over TCP or a
Unix socket — ``POST /v1/<verb>`` with a JSON body in, a ``200``
response streaming newline-delimited JSON (NDJSON) events out, then
``Connection: close``.  Real HTTP clients (``curl --no-buffer``) can
talk to it, but we implement only what the repo's client library
needs: no keep-alive, no chunked encoding, no content negotiation.

Event stream grammar (one JSON document per line):

``{"event": "hello", ...}``
    First line of every response: server identity and schema.
``{"event": "heartbeat", ...}``
    Progress while the request is queued/running (queue depth, state,
    elapsed seconds; ``explore`` adds done/total counts).
``{"event": "result", "response": {...}}``
    Terminal line: the :class:`~repro.api.EvaluationResponse` document
    (or verb-specific document) — exactly one per request.
``{"event": "error", ...}``
    Terminal line when the request never reached execution (bad verb,
    malformed body, shutdown race).
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from ..errors import ReproError

#: Protocol identity sent in the hello event and checked by clients.
PROTOCOL = "repro.serve/1"

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 32 * 1024 * 1024

VERBS = ("evaluate", "evaluate_many", "explore", "report", "health",
         "shutdown")


class ProtocolError(ReproError):
    """Malformed request/response framing."""


def encode_request(path: str, doc: Optional[Dict]) -> bytes:
    """Serialize one client request (POST + JSON body)."""
    body = b"" if doc is None else json.dumps(
        doc, sort_keys=True).encode("utf-8")
    head = (f"POST {path} HTTP/1.0\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n").encode("ascii")
    return head + body


def response_header(status: int = 200, reason: str = "OK") -> bytes:
    """The streaming response preamble (headers only, body follows
    as NDJSON lines)."""
    return (f"HTTP/1.0 {status} {reason}\r\n"
            f"Content-Type: application/x-ndjson\r\n"
            f"Cache-Control: no-store\r\n"
            f"Connection: close\r\n"
            f"\r\n").encode("ascii")


def event_bytes(doc: Dict) -> bytes:
    """One NDJSON event line.  ``sort_keys`` keeps the serialization
    canonical — dedup subscribers literally receive the same bytes."""
    return json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n"


def parse_event(line: bytes) -> Dict:
    try:
        doc = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable event line: {exc}")
    if not isinstance(doc, dict) or "event" not in doc:
        raise ProtocolError(f"event line without an event field: "
                            f"{str(doc)[:120]}")
    return doc


async def read_request(reader) -> Tuple[str, str, Optional[Dict]]:
    """Parse one inbound request from an asyncio stream.

    Returns ``(method, path, body_doc)``; raises
    :class:`ProtocolError` on malformed framing, oversized payloads,
    or undecodable JSON.  An immediately-closed connection (health
    probes, port scanners) surfaces as ``("", "", None)``.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except Exception as exc:  # IncompleteReadError, LimitOverrun
        partial = getattr(exc, "partial", b"")
        if not partial:
            return "", "", None
        raise ProtocolError(f"truncated request header "
                            f"({len(partial)} bytes)")
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request header too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) < 2:
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0")
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise ProtocolError(f"malformed Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"request body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    doc: Optional[Dict] = None
    if body:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"undecodable request body: {exc}")
    return method, path, doc


def verb_of(path: str) -> str:
    """Map a request path to its serve verb (``/v1/evaluate`` ->
    ``evaluate``)."""
    clean = path.split("?", 1)[0].strip("/")
    parts = clean.split("/")
    if len(parts) == 2 and parts[0] == "v1" and parts[1] in VERBS:
        return parts[1]
    raise ProtocolError(
        f"unknown path {path!r}; known: "
        + ", ".join(f"/v1/{v}" for v in VERBS))
