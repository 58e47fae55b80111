"""HTTP identity service: protocol completion and status mapping."""

import http.client
import json
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

    @pytest.mark.parametrize("bad_id", ["../../escaped", "a/b", "sessions"])
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
