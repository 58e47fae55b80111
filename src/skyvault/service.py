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
"""

from __future__ import annotations

import json
import threading
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

_STATUS_BY_ERROR = {
    BadIdentifier: 400,
    WeakPassword: 400,
    BadKeyLength: 400,
    ResponseMismatch: 401,
    Expired: 401,
    InvalidToken: 401,
    UnknownId: 404,
    UnknownChallenge: 404,
    DuplicateId: 409,
}


class _BadRequest(Exception):
    pass


def _handler_class(identity: IdentityService,
                   register: Callable[[str, str, bytes], Account]):
    # Imported here, not at module level: only `serve` needs the HTTP
    # stack, and every other command would pay for loading it.
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffer wfile so headers and body leave in the one write that
        # handle_one_request flushes after each request. Two writes let
        # Nagle's algorithm hold the body until the client's delayed ACK,
        # about 40 ms per request on a kept-alive connection.
        wbufsize = -1

        def log_message(self, fmt, *args):
            pass

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
                    self._reply(200, {
                        "token": b64u(session.token),
                        "account_id": session.account_id,
                        "expires_at": session.expires_at,
                    })
                else:
                    self._reply(404, {"error": "not_found",
                                      "message": f"no such endpoint: {self.path}"})
            except Exception as exc:
                self._reply_error(exc)

        def do_GET(self):
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
                    self._reply(404, {"error": "not_found",
                                      "message": f"no such endpoint: {self.path}"})
            except Exception as exc:
                self._reply_error(exc)

        # -- plumbing -----------------------------------------------------

        def _read_json(self) -> dict:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                # The body's end is unknown, so nothing after it can be
                # read as a request (RFC 9112, section 6.3).
                self.close_connection = True
                raise _BadRequest("Content-Length is not an integer") from None
            if length <= 0 or length > _MAX_BODY:
                if length != 0:
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
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _reply_error(self, exc: Exception):
            if isinstance(exc, _BadRequest):
                self._reply(400, {"error": "bad_request", "message": str(exc)})
                return
            if isinstance(exc, SkyVaultError):
                status = _STATUS_BY_ERROR.get(type(exc), 400)
                self._reply(status, {"error": exc.code, "message": str(exc)})
                return
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
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name="identity-http", daemon=True)
        self._thread.start()

    def serve_forever(self):
        self._server.serve_forever(poll_interval=0.05)

    def shutdown(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
