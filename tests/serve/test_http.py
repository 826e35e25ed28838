"""Unit tests for the hand-rolled HTTP/1.1 framing layer."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.http import (
    HttpError,
    HttpRequest,
    read_request,
    render_response,
)


def parse(raw: bytes, *, limit: int = 2 ** 16, **kwargs):
    """Feed raw bytes through read_request on a throwaway loop."""

    async def go():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


class TestReadRequest:
    def test_simple_get(self):
        request = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/healthz"
        assert request.headers["host"] == "x"
        assert request.body == b""
        assert request.keep_alive

    def test_post_with_body_and_query(self):
        raw = (
            b"POST /analyze?verbose=1 HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 8\r\n\r\n"
            b'{"a": 1}'
        )
        request = parse(raw)
        assert request.method == "POST"
        assert request.path == "/analyze"
        assert request.query == {"verbose": "1"}
        assert request.body == b'{"a": 1}'
        assert request.json() == {"a": 1}

    def test_connection_close_header(self):
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_truncated_head_is_400(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET / HTTP/1.1\r\nHos")
        assert err.value.status == 400

    def test_malformed_request_line_is_400(self):
        for raw in (b"NONSENSE\r\n\r\n", b"GET http://[ HTTP/1.1\r\n\r\n"):
            with pytest.raises(HttpError) as err:
                parse(raw)
            assert err.value.status == 400

    def test_malformed_header_is_400(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert err.value.status == 400

    def test_bad_content_length_is_400(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert err.value.status == 400

    def test_oversized_body_is_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(HttpError) as err:
            parse(raw, max_body=10)
        assert err.value.status == 413

    def test_chunked_transfer_encoding_is_501(self):
        raw = (
            b"POST /analyze HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"10\r\n{\"x\": 1}\r\n0\r\n\r\n"
        )
        with pytest.raises(HttpError) as err:
            parse(raw)
        assert err.value.status == 501
        assert "Content-Length" in err.value.message

    def test_oversized_head_is_413(self):
        raw = b"GET /" + b"a" * 4096 + b" HTTP/1.1\r\n\r\n"
        with pytest.raises(HttpError) as err:
            parse(raw, limit=1024)
        assert err.value.status == 413


#: Request-shaped inputs, so the fuzzer reaches past the request line.
_TARGET = st.lists(st.sampled_from(
    [b"/", b"a", b"http://[", b"http://h", b"?a=%ff&b", b"#", b"\xff"]
), max_size=6).map(b"".join)
_HEADER = st.sampled_from([
    b"Host: x", b"Connection: close", b"no-colon", b"Content-Length: 12",
    b"Content-Length: -1", b"Content-Length: nope",
    b"Content-Length: " + b"9" * 30, b"Transfer-Encoding: chunked",
])
_REQUEST = st.builds(
    lambda method, target, version, headers, body: (
        method + b" " + target + b" " + version + b"\r\n"
        + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body
    ),
    st.sampled_from([b"GET", b"POST", b""]),
    _TARGET,
    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"FTP/1"]),
    st.lists(_HEADER, max_size=4),
    st.binary(max_size=32),
)
_RAW = st.one_of(
    st.binary(max_size=512),
    _REQUEST,
    # Truncated anywhere: torn heads and short bodies.
    _REQUEST.flatmap(lambda raw: st.integers(0, len(raw)).map(
        lambda n: raw[:n]
    )),
)


class TestReadRequestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=_RAW, limit=st.sampled_from([64, 2 ** 16]),
           max_body=st.sampled_from([8, 2 ** 20]))
    def test_arbitrary_bytes_parse_or_documented_error(
        self, raw, limit, max_body
    ):
        """Any byte string yields a request, a clean EOF, or a 4xx/501
        :class:`HttpError` — never an unhandled exception."""
        try:
            request = parse(raw, limit=limit, max_body=max_body)
        except HttpError as err:
            assert err.status in (400, 413, 501)
        else:
            assert request is None or isinstance(request, HttpRequest)


class TestRequestJson:
    def test_invalid_json_is_400(self):
        request = HttpRequest(method="POST", path="/", body=b"{nope")
        with pytest.raises(HttpError) as err:
            request.json()
        assert err.value.status == 400

    def test_non_object_is_400(self):
        request = HttpRequest(method="POST", path="/", body=b"[1, 2]")
        with pytest.raises(HttpError) as err:
            request.json()
        assert err.value.status == 400

    @pytest.mark.parametrize("body", [b'{"x": NaN}', b'{"x": Infinity}',
                                      b'{"x": -Infinity}'])
    def test_nan_and_infinity_are_400(self, body):
        """Python-only float literals can't reach the job hash."""
        request = HttpRequest(method="POST", path="/", body=body)
        with pytest.raises(HttpError) as err:
            request.json()
        assert err.value.status == 400

    def test_empty_body_is_400(self):
        request = HttpRequest(method="POST", path="/")
        with pytest.raises(HttpError) as err:
            request.json()
        assert err.value.status == 400


class TestRenderResponse:
    def test_json_payload(self):
        raw = render_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert b'"ok": true' in body

    def test_close_header(self):
        raw = render_response(400, {"error": "x"}, keep_alive=False)
        assert b"Connection: close" in raw

    def test_raw_bytes_payload(self):
        raw = render_response(200, b"abc", content_type="text/plain")
        assert raw.endswith(b"\r\n\r\nabc")
        assert b"Content-Type: text/plain" in raw
