"""The ``http_login`` workload: logins against the identity HTTP service.

Two client threads run a closed loop, each over one kept-alive HTTP/1.1
connection: ``POST /auth/begin``, open the sealed nonce and answer on the
client side, ``POST /auth/complete``, then ``GET /session/<token>`` to
check that the token names the account. The accounts come from a state
built through the program's library; the server is ``skyvault serve`` in
its own process, or, in the traced replay, ``IdentityHttpServer`` in this
one.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from cli_workloads import Account, new_state, register_account
from common import CLI_TIMEOUT_S, WORK, Tally, child_env

CLIENTS = 2
ACCOUNTS = 200


def build(state_dir: Path, seed: int) -> list[Account]:
    from skyvault import state
    rng = random.Random(f"http-login-setup-{seed}")
    world = new_state(state_dir)
    accounts = [register_account(world, rng, f"user-{i:03d}") for i in range(ACCOUNTS)]
    state.save_world(world)
    return accounts


class Server:
    """``skyvault serve`` on an ephemeral port, ready once it answers."""

    def __init__(self, state_dir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "skyvault", "--state", str(state_dir), "serve",
             "--bind", "127.0.0.1:0"],
            env={**child_env(), "PYTHONUNBUFFERED": "1"}, cwd=WORK,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"serve did not start: {line!r} {self.proc.stderr.read()!r}")
            host, _, port = line.rsplit("http://", 1)[1].strip().rpartition(":")
            self.address = (host, int(port))
            probe = http.client.HTTPConnection(*self.address, timeout=CLI_TIMEOUT_S)
            try:
                probe.request("GET", "/session/AA")
                probe.getresponse().read()
            finally:
                probe.close()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mib(self) -> float:
        """The server's own peak RSS so far (``VmHWM``; Linux only)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


class Client:
    """One kept-alive connection; ``login`` returns None or what went wrong."""

    def __init__(self, address):
        self.conn = http.client.HTTPConnection(*address, timeout=CLI_TIMEOUT_S)

    def _call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def login(self, account: Account) -> str | None:
        from skyvault import crypto, identity, wire
        status, begun = self._call("POST", "/auth/begin", {"id": account.id})
        if status != 200:
            return f"begin: {status} {begun}"
        sealed = crypto.Envelope.from_bytes(wire.b64u_decode(begun["sealed_nonce"]))
        verifier = crypto.derive_credential(account.id, account.password).verifier
        response = identity.solve_challenge(sealed, account.keypair.private_key, verifier)
        status, session = self._call("POST", "/auth/complete", {
            "challenge_id": begun["challenge_id"],
            "response": wire.b64u(response.value)})
        if status != 200:
            return f"complete: {status} {session}"
        status, owner = self._call("GET", f"/session/{session['token']}")
        if status != 200 or owner.get("account_id") != account.id:
            return f"session check: {status} {owner}"
        return None

    def close(self):
        self.conn.close()


def login_order(accounts: list[Account], seed: int):
    rng = random.Random(f"http-login-ops-{seed}")
    while True:
        yield accounts[rng.randrange(len(accounts))]


def run_clients(address, logins, tally: Tally, seconds: float | None = None,
                around=None) -> tuple[list[float], float]:
    """Closed loop over ``CLIENTS`` threads sharing one iterator of accounts,
    for ``seconds`` or until the iterator ends.

    Returns the successful logins' walls and the loop's wall.
    """
    lock = threading.Lock()
    walls: list[float] = []
    around = around or (lambda fn: fn())

    def client_loop():
        client = Client(address)
        try:
            while deadline is None or time.perf_counter() < deadline:
                with lock:
                    account = next(logins, None)
                    if account is None:
                        return
                start = time.perf_counter()
                try:
                    problem = around(lambda: client.login(account))
                except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                    client.close()
                    client = Client(address)
                wall = time.perf_counter() - start
                with lock:
                    tally.attempted += 1
                    if problem is None:
                        walls.append(wall)
                    else:
                        tally.fail(f"login {account.id}: {problem}")
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(CLIENTS)]
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return walls, time.perf_counter() - start
