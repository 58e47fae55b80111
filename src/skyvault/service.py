"""HTTP JSON front end for the identity service.

Endpoints (octet values are unpadded base64url in JSON):

* ``POST /register``       {id, password, public_key} -> {id, created_at}
* ``POST /auth/begin``     {id} -> {challenge_id, sealed_nonce}
* ``POST /auth/complete``  {challenge_id, response} -> {token, account_id,
  expires_at}
* ``GET /session/<token>`` -> {account_id}

The begin response carries only the sealed nonce: the raw nonce never
crosses the wire. Statuses: 400 malformed input, 401 failed or expired
authentication, 404 unknown id/challenge/path, 409 duplicate id. An
account id must be a safe file name (see ``IdentityService.register``);
any other id is a 400 ``bad_identifier``.

Requests (RFC 9112): HTTP/1.0 or HTTP/1.1, the body framed by
``Content-Length`` alone and at most 1 MiB, at most 100 header lines of
at most 64 KiB each. Connections are kept alive unless the request is
HTTP/1.0 or says ``Connection: close``. Refusals, each followed by a
hang-up:

* 400 ``bad_request`` (JSON): any ``Transfer-Encoding``, ``Content-Length``
  sent twice with different values or not a decimal integer, a folded
  (obs-fold) or colon-less header line, a body over 1 MiB;
* 400 (HTML): a request line that is not ``METHOD target HTTP/1.x``;
* 414: a request line over 64 KiB;
* 431: a header line over 64 KiB, or more than 100 header lines;
* 501: a method other than GET and POST;
* 505: HTTP/2 or later.

A POST without a body is a 400 ``bad_request`` on a connection that stays
open; a GET's body is not read, so the connection closes after the reply.

Every failure, a refused request or an unknown path too, is a
``SkyVaultError``: its class gives the status and ``to_json()`` the body.
Any other exception is the one hand-built body, a 500 ``internal``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from typing import Callable

from .errors import (
    BadIdentifier,
    BadKeyLength,
    DuplicateId,
    Expired,
    InvalidToken,
    ResponseMismatch,
    SkyVaultError,
    UnknownChallenge,
    UnknownId,
    WeakPassword,
)
from .crypto import Digest
from .identity import Account, IdentityService
from .wire import b64u, b64u_decode

_MAX_BODY = 1 << 20
_MAX_LINE = 65536  # bytes in the request line, and in each header line
_MAX_HEADERS = 100  # header lines in one request


class _BadRequest(SkyVaultError):
    code = "bad_request"


class _NotFound(SkyVaultError):
    code = "not_found"


_STATUS_BY_ERROR = {
    _BadRequest: 400,
    BadIdentifier: 400,
    WeakPassword: 400,
    BadKeyLength: 400,
    ResponseMismatch: 401,
    Expired: 401,
    InvalidToken: 401,
    UnknownId: 404,
    UnknownChallenge: 404,
    _NotFound: 404,
    DuplicateId: 409,
}


def _handler_class(identity: IdentityService,
                   register: Callable[[str, str, bytes], Account]):
    # Imported here, not at module level: only `serve` needs the HTTP
    # stack, and every other command would pay for loading it.
    from http.server import BaseHTTPRequestHandler

    http_version = re.compile(r"HTTP/([0-9])\.([0-9])")

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffer wfile so headers and body leave in the one write that
        # handle_one_request flushes after each request. Two writes let
        # Nagle's algorithm hold the body until the client's delayed ACK,
        # about 40 ms per request on a kept-alive connection.
        wbufsize = -1
        # (second, Date header text) of the last reply: one format a second.
        # Threads racing on it cost at most one more format.
        _date = (-1, "")

        def log_message(self, fmt, *args):
            pass

        def parse_request(self):
            # One pass over the request line and the header lines, in place
            # of the stdlib's parse through email.feedparser. It keeps the
            # stdlib's limits and its Connection and Expect handling.
            self.command = None
            self.request_version = ""  # not HTTP/0.9: refusals get a status line
            self.close_connection = True
            self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
            words = self.requestline.split()
            if not words:
                return False
            version = len(words) == 3 and http_version.fullmatch(words[2])
            if not version or version[1] == "0":
                self.send_error(400, f"Bad request syntax ({self.requestline!r})")
                return False
            if version[1] != "1":
                self.send_error(505, f"Invalid HTTP version ({words[2]})")
                return False
            self.command, self.path, self.request_version = words
            self.close_connection = version[2] == "0"
            if self.path.startswith("//"):
                self.path = "/" + self.path.lstrip("/")

            self.headers = headers = {}
            for _ in range(_MAX_HEADERS + 1):
                line = self.rfile.readline(_MAX_LINE + 1)
                if len(line) > _MAX_LINE:
                    self.send_error(431, "Line too long")
                    return False
                if line in (b"\r\n", b"\n", b""):
                    break
                name, colon, value = str(line, "iso-8859-1").partition(":")
                name, value = name.lower(), value.strip(" \t\r\n")
                # Framing the stdlib would let through is refused (RFC 9112,
                # sections 5.1, 5.2 and 6.3): two readers of this stream
                # could otherwise disagree on where the body ends.
                if line[:1] in b" \t":
                    return self._refuse("obsolete line folding")
                if not colon or not name or name[-1] in " \t":
                    return self._refuse("malformed header line")
                if name == "transfer-encoding":
                    return self._refuse("Transfer-Encoding is not supported")
                if name == "content-length" and headers.get(name, value) != value:
                    return self._refuse("conflicting Content-Length headers")
                headers[name] = value
            else:
                self.send_error(431, "Too many headers")
                return False

            connection = headers.get("connection", "").lower()
            if connection == "close":
                self.close_connection = True
            elif connection == "keep-alive":
                self.close_connection = False
            length = headers.get("content-length", "0")
            # At most 18 digits, so int() never meets its digit limit.
            if not (length.isascii() and length.isdigit() and len(length) <= 18):
                return self._refuse("Content-Length is not an integer")
            self.body_length = int(length)
            if (headers.get("expect", "").lower() == "100-continue"
                    and self.request_version >= "HTTP/1.1"):
                return self.handle_expect_100()
            return True

        def handle_expect_100(self):
            # Flushed now, not left in the write buffer: the client may wait
            # for it before it sends the body.
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()
            return True

        def do_POST(self):
            try:
                body = self._read_json()
                if self.path == "/register":
                    account = register(
                        _text(body, "id"), _text(body, "password"),
                        _octets(body, "public_key"))
                    self._reply(200, {"id": account.id,
                                      "created_at": account.created_at})
                elif self.path == "/auth/begin":
                    challenge = identity.begin_auth(_text(body, "id"))
                    self._reply(200, {
                        "challenge_id": b64u(challenge.challenge_id),
                        "sealed_nonce": b64u(challenge.sealed_nonce.to_bytes()),
                    })
                elif self.path == "/auth/complete":
                    session = identity.complete_auth(
                        _octets(body, "challenge_id"),
                        Digest(_octets(body, "response")))
                    self._reply(200, session.to_json())
                else:
                    raise _NotFound(f"no such endpoint: {self.path}")
            except Exception as exc:
                self._reply_error(exc)

        def do_GET(self):
            if self.body_length:
                self.close_connection = True  # its body is not read
            try:
                if self.path.startswith("/session/"):
                    token = self.path[len("/session/"):]
                    try:
                        raw = b64u_decode(token)
                    except ValueError:
                        raise _BadRequest("token is not valid base64url") from None
                    account_id = identity.validate_session(raw)
                    self._reply(200, {"account_id": account_id})
                else:
                    raise _NotFound(f"no such endpoint: {self.path}")
            except Exception as exc:
                self._reply_error(exc)

        # -- plumbing -----------------------------------------------------

        def _refuse(self, message: str) -> bool:
            # The body's end is unknown, so nothing after it can be read as
            # a request (RFC 9112, section 6.3).
            self.close_connection = True
            self._reply_error(_BadRequest(message))
            return False

        def _read_json(self) -> dict:
            length = self.body_length
            if not 0 < length <= _MAX_BODY:
                if length:
                    # The body's bytes stay unread, so they must not be
                    # read as the next request.
                    self.close_connection = True
                raise _BadRequest("missing or oversized request body")
            try:
                payload = json.loads(self.rfile.read(length))
            except (ValueError, UnicodeDecodeError):
                raise _BadRequest("request body is not valid JSON") from None
            if not isinstance(payload, dict):
                raise _BadRequest("request body must be a JSON object")
            return payload

        def _reply(self, status: int, payload: dict):
            # The head send_response and send_header would build, formatted
            # in one piece.
            body = json.dumps(payload).encode("utf-8")
            now = int(time.time())
            second, date = Handler._date
            if second != now:
                date = self.date_time_string(now)
                Handler._date = (now, date)
            head = (f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                    f"Server: {self.version_string()}\r\n"
                    f"Date: {date}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n")
            self.wfile.write(head.encode("latin-1") + body)

        def _reply_error(self, exc: Exception):
            if isinstance(exc, SkyVaultError):
                self._reply(_STATUS_BY_ERROR.get(type(exc), 400), exc.to_json())
            else:
                self._reply(500, {"error": "internal", "message": str(exc)})

    return Handler


def _text(body: dict, key: str) -> str:
    value = body.get(key)
    if not isinstance(value, str) or not value:
        raise _BadRequest(f"missing or non-string field: {key}")
    return value


def _octets(body: dict, key: str) -> bytes:
    try:
        return b64u_decode(_text(body, key))
    except ValueError:
        raise _BadRequest(f"field {key} is not valid base64url") from None


class IdentityHttpServer:
    """Threaded HTTP server wrapping one IdentityService.

    ``register``, if given, stands in for ``identity.register`` on
    ``POST /register``, so the caller can check each new account against
    its store and persist it before the registration is answered.
    """

    def __init__(self, identity: IdentityService, host: str = "127.0.0.1",
                 port: int = 0,
                 register: Callable[[str, str, bytes], Account] | None = None):
        from http.server import ThreadingHTTPServer

        self._server = ThreadingHTTPServer(
            (host, port), _handler_class(identity, register or identity.register))
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name="identity-http", daemon=True)
        thread.start()
        self._thread = thread

    def shutdown(self):
        if self._thread is not None:  # shutdown() waits for the serving loop
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.server_close()
