"""HTTP identity service: protocol completion and status mapping."""

import http.client
import http.server
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from skyvault.crypto import Envelope, derive_credential, digest, generate_keypair
from skyvault.identity import IdentityService
from skyvault.service import IdentityHttpServer
from skyvault.wire import b64u, b64u_decode


@pytest.fixture
def server():
    identity = IdentityService()
    srv = IdentityHttpServer(identity, port=0)
    srv.start()
    yield srv
    srv.shutdown()


def call(server, method, path, body=None):
    url = server.url + path
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def register(server, id="alice-consumer", password="sturdy password"):
    keypair = generate_keypair()
    status, body = call(server, "POST", "/register", {
        "id": id, "password": password, "public_key": b64u(keypair.public_key)})
    return status, body, keypair


def full_login(server, id="alice-consumer", password="sturdy password"):
    _, _, keypair = register(server, id, password)
    _, begin = call(server, "POST", "/auth/begin", {"id": id})
    sealed = Envelope.from_bytes(b64u_decode(begin["sealed_nonce"]))
    from skyvault.identity import solve_challenge
    response = solve_challenge(sealed, keypair.private_key,
                               derive_credential(id, password).verifier)
    return call(server, "POST", "/auth/complete", {
        "challenge_id": begin["challenge_id"],
        "response": b64u(response.value)})


class TestEndpoints:
    def test_register_ok(self, server):
        status, body, _ = register(server)
        assert status == 200
        assert body["id"] == "alice-consumer"

    def test_duplicate_register_409(self, server):
        register(server)
        status, body, _ = register(server)
        assert status == 409
        assert body["error"] == "duplicate_id"

    def test_weak_password_400(self, server):
        status, body, _ = register(server, password="short")
        assert status == 400
        assert body["error"] == "weak_password"

    @pytest.mark.parametrize("bad_id", ["../../escaped", "a/b"])
    def test_unsafe_id_400(self, server, bad_id):
        status, body, _ = register(server, id=bad_id)
        assert status == 400
        assert body["error"] == "bad_identifier"

    def test_registration_callback(self):
        identity, saved = IdentityService(), []

        def register_and_save(*args):
            account = identity.register(*args)
            saved.append(account)
            return account

        srv = IdentityHttpServer(identity, port=0, register=register_and_save)
        srv.start()
        try:
            register(srv)
            register(srv)  # a duplicate is not passed on
            register(srv, id="../x")
            full_login(srv, id="bob-consumer")
        finally:
            srv.shutdown()
        assert [account.id for account in saved] == ["alice-consumer", "bob-consumer"]

    def test_full_protocol_yields_token(self, server):
        status, body = full_login(server)
        assert status == 200
        assert body["account_id"] == "alice-consumer"
        status, session = call(server, "GET", "/session/" + body["token"])
        assert status == 200
        assert session["account_id"] == "alice-consumer"

    def test_begin_omits_raw_nonce(self, server):
        register(server)
        status, body = call(server, "POST", "/auth/begin",
                            {"id": "alice-consumer"})
        assert status == 200
        assert set(body) == {"challenge_id", "sealed_nonce"}

    def test_begin_unknown_id_404(self, server):
        status, body = call(server, "POST", "/auth/begin", {"id": "ghost-user"})
        assert status == 404
        assert body["error"] == "unknown_id"

    def test_wrong_response_401(self, server):
        register(server)
        _, begin = call(server, "POST", "/auth/begin", {"id": "alice-consumer"})
        status, body = call(server, "POST", "/auth/complete", {
            "challenge_id": begin["challenge_id"],
            "response": b64u(digest(b"wild guess").value)})
        assert status == 401
        assert body["error"] == "response_mismatch"

    def test_unknown_challenge_404(self, server):
        status, body = call(server, "POST", "/auth/complete", {
            "challenge_id": b64u(b"\x00" * 16),
            "response": b64u(digest(b"x").value)})
        assert status == 404

    def test_bad_session_token_401(self, server):
        status, body = call(server, "GET", "/session/" + b64u(b"\x77" * 32))
        assert status == 401
        assert body["error"] == "invalid_token"

    def test_malformed_json_400(self, server):
        url = server.url + "/register"
        request = urllib.request.Request(url, data=b"{not json", method="POST")
        try:
            with urllib.request.urlopen(request, timeout=10) as resp:
                status = resp.status
        except urllib.error.HTTPError as err:
            status = err.code
        assert status == 400

    def test_missing_field_400(self, server):
        status, body = call(server, "POST", "/register", {"id": "x"})
        assert status == 400

    def test_bad_base64_400(self, server):
        status, _ = call(server, "POST", "/register", {
            "id": "x", "password": "long enough!", "public_key": "@@@"})
        assert status == 400

    def test_unknown_path_404(self, server):
        assert call(server, "POST", "/nope", {})[0] == 404
        assert call(server, "GET", "/nope")[0] == 404

    def test_concurrent_registrations(self, server):
        # Distinct ids in parallel: all succeed, store stays consistent.
        results = {}

        def hit(i):
            results[i] = register(server, id=f"user-{i:03d}")[0]

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(results.values()) == {200}

    def test_concurrent_duplicate_registrations(self, server):
        # Same id raced from many threads: exactly one 200.
        statuses = []
        lock = threading.Lock()
        keypair = generate_keypair()

        def hit():
            status, _ = call(server, "POST", "/register", {
                "id": "contested-name", "password": "sturdy password",
                "public_key": b64u(keypair.public_key)})
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert statuses.count(200) == 1
        assert statuses.count(409) == 7

    def test_non_integer_content_length_400(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            conn.putrequest("POST", "/register")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.loads(resp.read())["error"] == "bad_request"
            # The body's end is unknown, so the server hangs up.
            assert conn.sock.recv(1) == b""
        finally:
            conn.close()

    def test_oversized_body_400_then_hang_up(self, server):
        # The unread body must not be parsed as a second request.
        head = (b"POST /register HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 1048577\r\n\r\n")
        smuggled = b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(server.address, timeout=2) as sock:
            sock.sendall(head + smuggled)
            received = b""
            try:
                while chunk := sock.recv(4096):
                    received += chunk
                closed = True
            except TimeoutError:
                closed = False
        assert received.startswith(b"HTTP/1.1 400 ")
        assert received.count(b"HTTP/1.1 ") == 1
        assert closed


class TestKeepAlive:
    def test_kept_alive_requests_do_not_stall(self, server):
        # Headers and body in separate writes would let Nagle's algorithm
        # hold each body until the client's delayed ACK: about 40 ms a
        # request, so at least 1 s for these 25.
        register(server)
        body = json.dumps({"id": "alice-consumer"})
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            started = time.perf_counter()
            for _ in range(25):
                conn.request("POST", "/auth/begin", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.5

    def test_concurrent_logins(self, server):
        tokens = {}

        def hit(i):
            status, body = full_login(server, id=f"user-{i:03d}")
            if status == 200:
                tokens[i] = body["token"]

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert sorted(tokens) == list(range(8))
        for i, token in tokens.items():
            assert call(server, "GET", "/session/" + token) == \
                (200, {"account_id": f"user-{i:03d}"})


# -- raw-socket framing, limits and response head ------------------------------

BODY = b'{"id": "ghost-user"}'


def exchange(server, data: bytes) -> bytes:
    """Send DATA on a fresh connection and return all the server sends
    before it hangs up; a server that keeps the connection open fails the
    test with a timeout."""
    received = b""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(data)
        while chunk := sock.recv(65536):
            received += chunk
    return received


def replies(received: bytes) -> list[tuple[str, list[tuple[str, str]], bytes]]:
    """Split a byte stream of responses into (status line, headers, body)."""
    out = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        status, *lines = head.decode("latin-1").split("\r\n")
        headers = [tuple(line.split(": ", 1)) for line in lines]
        length = int(dict(headers).get("Content-Length", 0))
        out.append((status, headers, rest[:length]))
        received = rest[length:]
    return out


def post(path: str, body: bytes = BODY, extra: bytes = b"") -> bytes:
    return (b"POST %s HTTP/1.1\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n%s"
            % (path.encode(), extra, len(body), body))


class TestFraming:
    """A body whose end two readers could place differently is refused with
    400 bad_request, and the connection closes (RFC 9112, 5.2 and 6.3)."""

    @pytest.mark.parametrize("head", [
        b"Transfer-Encoding: chunked\r\n",
        b"Content-Length: 10\r\nContent-Length: 0\r\n",
        b"X-Folded: a\r\n b\r\n",
        b"No-Colon\r\n",
        b"X-Space-Before : colon\r\n",
        b"Content-Length: +20\r\n",
    ], ids=["transfer-encoding", "two-lengths", "obs-fold", "no-colon",
            "space-before-colon", "signed-length"])
    def test_refused_then_hang_up(self, server, head):
        # What follows the head is sent too: none of it may be answered.
        request = (b"POST /auth/begin HTTP/1.1\r\nHost: x\r\n" + head + b"\r\n"
                   + b"14\r\n" + BODY + b"\r\n0\r\n\r\n" + post("/nope"))
        [(status, _, body)] = replies(exchange(server, request))
        assert status == "HTTP/1.1 400 Bad Request"
        assert json.loads(body)["error"] == "bad_request"

    def test_repeated_equal_length_accepted(self, server):
        request = (b"POST /auth/begin HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                   b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n%s"
                   % (len(BODY), len(BODY), BODY))
        [(status, _, body)] = replies(exchange(server, request))
        assert status == "HTTP/1.1 404 Not Found"
        assert json.loads(body)["error"] == "unknown_id"

    def test_get_body_is_not_read_as_a_request(self, server):
        smuggled = b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (b"GET /nope HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                   % (len(smuggled), smuggled))
        [(status, _, body)] = replies(exchange(server, request))
        assert status == "HTTP/1.1 404 Not Found"
        assert b"/nope" in body


class TestLimits:
    def test_100_header_lines_accepted(self, server):
        head = b"".join(b"X-%d: a\r\n" % i for i in range(99))
        request = b"GET /nope HTTP/1.1\r\n" + head + b"Connection: close\r\n\r\n"
        [(status, _, _)] = replies(exchange(server, request))
        assert status == "HTTP/1.1 404 Not Found"

    def test_101_header_lines_431_then_hang_up(self, server):
        head = b"".join(b"X-%d: a\r\n" % i for i in range(101))
        received = exchange(server, b"GET /nope HTTP/1.1\r\n" + head + b"\r\n")
        assert received.startswith(b"HTTP/1.1 431 ")
        assert received.count(b"HTTP/1.1 ") == 1

    def test_long_header_line_431(self, server):
        # Exactly what the server reads, so nothing is left unread.
        line = b"X: " + b"a" * (65537 - 3)
        received = exchange(server, b"GET /nope HTTP/1.1\r\n" + line)
        assert received.startswith(b"HTTP/1.1 431 ")

    def test_long_request_line_414(self, server):
        line = b"GET /" + b"a" * (65537 - 5)
        received = exchange(server, line)
        assert received.startswith(b"HTTP/1.1 414 ")

    @pytest.mark.parametrize("line", [
        b"GET / extra HTTP/1.1", b"GARBAGE", b"GET /nope HTTP/x.y", b"GET /nope",
        b"GET /nope HTTP/0.9"])
    def test_malformed_request_line_400(self, server, line):
        received = exchange(server, line + b"\r\nHost: x\r\n\r\n")
        assert received.startswith(b"HTTP/1.1 400 ")

    def test_http2_505(self, server):
        received = exchange(server, b"GET /nope HTTP/2.0\r\nHost: x\r\n\r\n")
        assert received.startswith(b"HTTP/1.1 505 ")

    def test_http10_answered_then_closed(self, server):
        [(status, _, body)] = replies(exchange(server, b"GET /nope HTTP/1.0\r\n\r\n"))
        assert status == "HTTP/1.1 404 Not Found"
        assert json.loads(body)["error"] == "not_found"

    def test_connection_close_honoured(self, server):
        request = post("/auth/begin", extra=b"Connection: close\r\n")
        [(status, _, body)] = replies(exchange(server, request))
        assert status == "HTTP/1.1 404 Not Found"
        assert json.loads(body)["error"] == "unknown_id"

    def test_pipelined_requests_answered_in_order(self, server):
        request = (b"GET /first HTTP/1.1\r\nHost: x\r\n\r\n"
                   + post("/second", extra=b"Connection: close\r\n"))
        answers = replies(exchange(server, request))
        assert [json.loads(body)["message"] for _, _, body in answers] == [
            "no such endpoint: /first", "no such endpoint: /second"]

    def test_expect_100_continue_before_body(self, server):
        head = (b"POST /auth/begin HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(BODY))
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(BODY)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        [(status, _, body)] = replies(received)
        assert status == "HTTP/1.1 404 Not Found"
        assert json.loads(body)["error"] == "unknown_id"


IMF_FIXDATE = re.compile(r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), [0-9]{2} "
                         r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) "
                         r"[0-9]{4} [0-9]{2}:[0-9]{2}:[0-9]{2} GMT")


class TestResponseHead:
    """Every JSON reply carries exactly these four headers, in this order."""

    def check(self, received: bytes, status_line: str):
        [(status, headers, body)] = replies(received)
        assert status == status_line
        assert [name for name, _ in headers] == [
            "Server", "Date", "Content-Type", "Content-Length"]
        values = dict(headers)
        handler = http.server.BaseHTTPRequestHandler
        assert values["Server"] == f"{handler.server_version} {handler.sys_version}"
        assert IMF_FIXDATE.fullmatch(values["Date"])
        assert values["Content-Type"] == "application/json"
        assert values["Content-Length"] == str(len(body))
        json.loads(body)

    def test_200_head(self, server):
        body = json.dumps({"id": "alice-consumer", "password": "sturdy password",
                           "public_key": b64u(generate_keypair().public_key)})
        request = post("/register", body.encode(), extra=b"Connection: close\r\n")
        self.check(exchange(server, request), "HTTP/1.1 200 OK")

    def test_404_head(self, server):
        request = b"GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        self.check(exchange(server, request), "HTTP/1.1 404 Not Found")


class TestReplyBodies:
    """Error replies and the session reply, byte for byte."""

    CLOSE = b"Connection: close\r\n"

    def answer(self, server, request: bytes) -> tuple[str, bytes]:
        [(status, _, body)] = replies(exchange(server, request))
        return status, body

    def test_409_duplicate_id(self, server):
        register(server)
        body = json.dumps({"id": "alice-consumer", "password": "sturdy password",
                           "public_key": b64u(generate_keypair().public_key)})
        assert self.answer(server, post("/register", body.encode(), self.CLOSE)) == (
            "HTTP/1.1 409 Conflict",
            b'{"error": "duplicate_id", '
            b'"message": "account already registered: alice-consumer"}')

    def test_404_unknown_id(self, server):
        assert self.answer(server, post("/auth/begin", extra=self.CLOSE)) == (
            "HTTP/1.1 404 Not Found",
            b'{"error": "unknown_id", "message": "no such account: ghost-user"}')

    def test_404_not_found(self, server):
        request = b"GET /nope HTTP/1.1\r\nHost: x\r\n" + self.CLOSE + b"\r\n"
        assert self.answer(server, request) == (
            "HTTP/1.1 404 Not Found",
            b'{"error": "not_found", "message": "no such endpoint: /nope"}')

    def test_404_not_found_post(self, server):
        assert self.answer(server, post("/nope", extra=self.CLOSE)) == (
            "HTTP/1.1 404 Not Found",
            b'{"error": "not_found", "message": "no such endpoint: /nope"}')

    def test_400_bad_request(self, server):
        assert self.answer(server, post("/register", b"[1]", self.CLOSE)) == (
            "HTTP/1.1 400 Bad Request",
            b'{"error": "bad_request", "message": "request body must be a JSON object"}')

    def test_400_refused_framing(self, server):
        request = (b"POST /register HTTP/1.1\r\nHost: x\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
        assert self.answer(server, request) == (
            "HTTP/1.1 400 Bad Request",
            b'{"error": "bad_request", "message": "Transfer-Encoding is not supported"}')

    def test_401_response_mismatch(self, server):
        register(server)
        _, begin = call(server, "POST", "/auth/begin", {"id": "alice-consumer"})
        body = json.dumps({"challenge_id": begin["challenge_id"],
                           "response": b64u(digest(b"wild guess").value)})
        assert self.answer(server, post("/auth/complete", body.encode(), self.CLOSE)) == (
            "HTTP/1.1 401 Unauthorized",
            b'{"error": "response_mismatch", '
            b'"message": "challenge response does not match"}')

    def test_401_invalid_token(self, server):
        request = (b"GET /session/" + b64u(b"\x77" * 32).encode()
                   + b" HTTP/1.1\r\nHost: x\r\n" + self.CLOSE + b"\r\n")
        assert self.answer(server, request) == (
            "HTTP/1.1 401 Unauthorized",
            b'{"error": "invalid_token", "message": "no such session"}')

    def test_session_keys_in_order(self, server):
        status, body = full_login(server)
        assert status == 200
        assert list(body) == ["token", "account_id", "expires_at"]
