"""Minimal HTTP/1.1 framing over asyncio streams.

The serving layer deliberately avoids web frameworks (the repository
bakes in no third-party server dependency), so this module hand-rolls
the small slice of HTTP the JSON API needs on top of
``asyncio.StreamReader`` / ``StreamWriter``:

* :func:`read_request` — parse one request (request line, headers,
  ``Content-Length``-delimited body) with hard size limits, returning
  ``None`` on a clean end-of-stream so connection loops terminate;
* :func:`render_response` — serialise one JSON (or raw-bytes) response
  with correct ``Content-Length`` and keep-alive headers;
* :class:`HttpError` — the one exception handlers raise to produce a
  non-200 JSON error body.

Connections are keep-alive by default (HTTP/1.1 semantics): the server
keeps reading requests until the peer closes or sends
``Connection: close``.  Anything beyond that — chunked encoding,
multipart, TLS — is out of scope; the service speaks plain JSON over
plain sockets.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

#: Upper bound on the request line + headers, in bytes.
MAX_HEAD_BYTES = 32 * 1024
#: Upper bound on a request body, in bytes (generous for flow-set docs).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Reason phrases for the statuses the service actually emits.
STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _reject_constant(name: str):
    """Refuse the non-JSON float literals Python's decoder tolerates."""
    raise ValueError(f"{name} is not valid JSON")


class HttpError(Exception):
    """A request failure that maps to one JSON error response.

    ``retry_after`` (seconds) adds a ``Retry-After`` header — the
    backpressure contract of 503 responses while the worker pool
    rebuilds: clients should wait that long before retrying.
    """

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after

    def body(self) -> dict:
        """The JSON error payload sent to the client."""
        payload = {"error": self.message, "status": self.status}
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        return payload

    def headers(self) -> dict[str, str]:
        """Extra response headers this error carries."""
        if self.retry_after is None:
            return {}
        # Retry-After is integer delta-seconds; round up so 0.2s never
        # becomes an immediate-retry "0".
        return {"Retry-After": str(max(1, math.ceil(self.retry_after)))}


@dataclass
class HttpRequest:
    """One parsed request: method, split path, headers and raw body."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the connection survives this exchange (HTTP/1.1 default)."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        """The body decoded as a strict JSON object (400 on anything else).

        ``NaN``/``Infinity`` literals are rejected here even though
        Python's decoder accepts them: they cannot round-trip through
        the canonical JSON the job hash is built on, so letting them in
        would turn a client mistake into a server error downstream.
        """
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            data = json.loads(self.body, parse_constant=_reject_constant)
        except (json.JSONDecodeError, ValueError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(data, dict):
            raise HttpError(400, "request body must be a JSON object")
        return data


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_head: int = MAX_HEAD_BYTES,
    max_body: int = MAX_BODY_BYTES,
) -> HttpRequest | None:
    """Read and parse one request; ``None`` when the peer closed cleanly.

    Raises :class:`HttpError` on malformed framing (bad request line,
    unparsable ``Content-Length``) and on size-limit violations, so the
    connection handler can answer with a JSON error before closing.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, f"request head exceeds {max_head} bytes") from None
    if len(head) > max_head:
        raise HttpError(413, f"request head exceeds {max_head} bytes")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. "http://[" (invalid IPv6 host)
        raise HttpError(400, f"malformed request target: {exc}") from None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        # Without this rejection a chunked body would be misread as the
        # next request on the keep-alive connection.
        raise HttpError(
            501, "Transfer-Encoding is not supported; send Content-Length"
        )
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length: {length_text!r}") from None
    if length < 0:
        raise HttpError(400, f"bad Content-Length: {length_text!r}")
    if length > max_body:
        raise HttpError(413, f"request body exceeds {max_body} bytes")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        # Peer closed mid-body; answer 400 (best effort) and hang up.
        raise HttpError(400, "truncated request body") from None

    return HttpRequest(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    payload: dict | list | bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialise one response (JSON payloads are encoded here)."""
    if isinstance(payload, bytes):
        body = payload
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    phrase = STATUS_PHRASES.get(status, "Unknown")
    extras = "".join(
        f"{name}: {value}\r\n"
        for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extras}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body
