"""Off-chain authentication authority: registration, challenge login, sessions.

Login is a three-message exchange. The server seals a random nonce to
the account's public key; the client opens it with the private key and
answers with SHA-256(nonce || verifier), so one response proves
possession of the private key AND knowledge of the password. Challenges
are single-use and expire; every transaction-facing call is gated on a
session token issued here.

A session token carries its own proof, so no table of sessions is kept:
tag(32) ‖ expires_at(u64) ‖ nonce(16) ‖ utf8(account_id), where the tag
is HMAC-SHA-256 (RFC 2104) under the session key over everything after
it. The nonce keeps two logins of one account in one second apart. A
token cannot be revoked before it expires.

Accounts and challenges are one serialized state: concurrent requests
apply one at a time. Sealing a challenge's nonce is the one slow step,
and it runs outside the lock; validating a token takes no lock. A
logical clock is injected so expiry is deterministic under test.
"""

from __future__ import annotations

import hmac
import os
import re
import threading
import time
from collections import OrderedDict
from typing import Callable

from .crypto import Digest, derive_credential, digest, open_envelope, seal, Envelope
from .errors import (
    BadIdentifier,
    BadKeyLength,
    DuplicateId,
    Expired,
    InvalidToken,
    ResponseMismatch,
    UnknownChallenge,
    UnknownId,
    WeakPassword,
)
from .wire import Record, b64u, b64u_decode

CHALLENGE_TTL_DEFAULT = 120
SESSION_TTL_DEFAULT = 3600
MIN_PASSWORD_LENGTH = 8

CHALLENGE_ID_SIZE = 16
NONCE_SIZE = 32
SESSION_KEY_SIZE = 32
TOKEN_NONCE_SIZE = 16
# Where a token's tag, expires_at and nonce end; the account id follows.
_TAG_END, _EXPIRES_END, _ID_START = 32, 40, 40 + TOKEN_NONCE_SIZE

# Account ids name files (accounts/<id>.json, keys/<id>.json), so an id
# must be one plain file name: no separators and no leading dot.
_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


class Account(Record):
    """Registered identity. The password itself is never stored anywhere."""

    id: str
    verifier: Digest
    public_key: bytes
    created_at: int

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "verifier": self.verifier.hex,
            "public_key": b64u(self.public_key),
            "created_at": self.created_at,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Account":
        return cls(
            id=data["id"],
            verifier=Digest.from_hex(data["verifier"]),
            public_key=b64u_decode(data["public_key"]),
            created_at=int(data["created_at"]),
        )


class Challenge(Record):
    """Outstanding login challenge; ``nonce`` stays server-side until solved."""

    __slots__ = ("challenge_id", "account_id", "nonce", "sealed_nonce", "issued_at")

    challenge_id: bytes
    account_id: str
    nonce: bytes
    sealed_nonce: Envelope
    issued_at: int


class SessionToken(Record):
    __slots__ = ("token", "account_id", "expires_at")

    token: bytes
    account_id: str
    expires_at: int

    def to_json(self) -> dict:
        return {
            "token": b64u(self.token),
            "account_id": self.account_id,
            "expires_at": self.expires_at,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SessionToken":
        return cls(
            token=b64u_decode(data["token"]),
            account_id=data["account_id"],
            expires_at=int(data["expires_at"]),
        )


def check_id(id: str) -> str:
    """Return ID if it is a safe account id, else raise BadIdentifier."""
    if not _ID_PATTERN.fullmatch(id):
        raise BadIdentifier(f"account id must match {_ID_PATTERN.pattern}: {id!r}")
    return id


def solve_challenge(sealed_nonce: Envelope, private_key: bytes, verifier: Digest) -> Digest:
    """Client-side response: open the sealed nonce and bind it to the verifier."""
    nonce = open_envelope(private_key, sealed_nonce)
    return digest(nonce + verifier.value)


class IdentityService:
    """Accounts and challenges behind one lock. Without SESSION_KEY, a
    random key is used, and only this service accepts its tokens."""

    def __init__(self, clock: Callable[[], int] | None = None,
                 challenge_ttl: int = CHALLENGE_TTL_DEFAULT,
                 session_ttl: int = SESSION_TTL_DEFAULT,
                 session_key: bytes | None = None):
        self._clock = clock or (lambda: int(time.time()))
        self._challenge_ttl = challenge_ttl
        self._session_ttl = session_ttl
        # Keyed once; each token hashes a copy. A one-shot hmac.digest per
        # token re-keys, and slows down when two threads call it at once.
        self._mac = hmac.new(session_key or os.urandom(SESSION_KEY_SIZE),
                             digestmod="sha256")
        self._lock = threading.Lock()
        self._accounts: dict[str, Account] = {}
        # In issue order, so expired challenges sit at the front. An
        # OrderedDict reaches its first entry in O(1); a dict rescans
        # the holes its front deletions leave.
        self._challenges: OrderedDict[bytes, Challenge] = OrderedDict()

    # -- registration and login ------------------------------------------

    def register(self, id: str, password: str, public_key: bytes) -> Account:
        check_id(id)
        if len(password) < MIN_PASSWORD_LENGTH:
            raise WeakPassword(f"password must be at least {MIN_PASSWORD_LENGTH} characters")
        if len(public_key) != 32:
            raise BadKeyLength(f"public key must be 32 bytes, got {len(public_key)}")
        credential = derive_credential(id, password)
        with self._lock:
            if id in self._accounts:
                raise DuplicateId(f"account already registered: {id}")
            account = Account(
                id=id,
                verifier=credential.verifier,
                public_key=public_key,
                created_at=self._clock(),
            )
            self._accounts[id] = account
            return account

    def begin_auth(self, id: str) -> Challenge:
        """Issue a fresh challenge: a random nonce sealed to the account's key.

        Also drops the challenges that expired unanswered, oldest first,
        so the table holds only live ones.
        """
        account = self.get_account(id)
        # Accounts are never removed, so the one read above stays valid
        # while the seal runs without the lock.
        nonce = os.urandom(NONCE_SIZE)
        sealed_nonce = seal(account.public_key, nonce)
        with self._lock:
            now = self._clock()
            while self._challenges and now > (
                    next(iter(self._challenges.values())).issued_at + self._challenge_ttl):
                self._challenges.popitem(last=False)
            challenge = Challenge(
                challenge_id=os.urandom(CHALLENGE_ID_SIZE),
                account_id=account.id,
                nonce=nonce,
                sealed_nonce=sealed_nonce,
                issued_at=now,
            )
            self._challenges[challenge.challenge_id] = challenge
            return challenge

    def complete_auth(self, challenge_id: bytes, response: Digest) -> SessionToken:
        """Check the response and trade the challenge for a session.

        The challenge is consumed whatever the outcome: replays and
        mismatched responses both burn it.
        """
        with self._lock:
            challenge = self._challenges.pop(challenge_id, None)
            if challenge is None:
                raise UnknownChallenge("unknown or already-used challenge")
            now = self._clock()
            if now > challenge.issued_at + self._challenge_ttl:
                raise Expired("challenge expired")
            account = self._accounts[challenge.account_id]
        expected = digest(challenge.nonce + account.verifier.value)
        if not hmac.compare_digest(response.value, expected.value):
            raise ResponseMismatch("challenge response does not match")
        expires_at = min(now + self._session_ttl, 2**64 - 1)  # a u64 in the token
        body = (expires_at.to_bytes(8, "big") + os.urandom(TOKEN_NONCE_SIZE)
                + account.id.encode("utf-8"))
        return SessionToken(token=self._tag(body) + body, account_id=account.id,
                            expires_at=expires_at)

    def validate_session(self, token: bytes) -> str:
        """Return the owning account id iff this service's key minted the
        token and it is unexpired."""
        if not (len(token) > _ID_START
                and hmac.compare_digest(self._tag(token[_TAG_END:]), token[:_TAG_END])):
            raise InvalidToken("no such session")
        if self._clock() > int.from_bytes(token[_TAG_END:_EXPIRES_END], "big"):
            raise Expired("session expired")
        return token[_ID_START:].decode("utf-8")

    def _tag(self, body: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(body)
        return mac.digest()

    # -- lookups and persistence ------------------------------------------

    def get_account(self, id: str) -> Account:
        with self._lock:
            account = self._accounts.get(id)
            if account is None:
                raise UnknownId(f"no such account: {id}")
            return account

    def accounts(self) -> list[Account]:
        with self._lock:
            return list(self._accounts.values())

    def restore_account(self, account: Account):
        """Load a persisted account; duplicate ids still raise."""
        with self._lock:
            if account.id in self._accounts:
                raise DuplicateId(f"account already registered: {account.id}")
            self._accounts[account.id] = account
