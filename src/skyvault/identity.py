"""Off-chain authentication authority: registration, challenge login, sessions.

Login is a three-message exchange. The server seals a random nonce to
the account's public key; the client opens it with the private key and
answers with SHA-256(nonce || verifier), so one response proves
possession of the private key AND knowledge of the password. Challenges
are single-use and expire; every transaction-facing call is gated on a
session token issued here.

The store is a single serialized state: concurrent requests apply one
at a time. Sealing a challenge's nonce is the one slow step, and it runs
outside the lock. A logical clock is injected so expiry is deterministic
under test.
"""

from __future__ import annotations

import hmac
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
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
from .wire import b64u, b64u_decode

CHALLENGE_TTL_DEFAULT = 120
SESSION_TTL_DEFAULT = 3600
MIN_PASSWORD_LENGTH = 8

CHALLENGE_ID_SIZE = 16
NONCE_SIZE = 32
TOKEN_SIZE = 32

# Account ids name files (accounts/<id>.json, keys/<id>.json), so an id
# must be one plain file name: no separators, no leading dot, and not
# the name of the sessions file that shares accounts/.
_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")
_RESERVED_ID = "sessions"


@dataclass(frozen=True)
class Account:
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


@dataclass(frozen=True, slots=True)
class Challenge:
    """Outstanding login challenge; ``nonce`` stays server-side until solved."""

    challenge_id: bytes
    account_id: str
    nonce: bytes
    sealed_nonce: Envelope
    issued_at: int


@dataclass(frozen=True, slots=True)
class SessionToken:
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
    if not _ID_PATTERN.fullmatch(id) or id == _RESERVED_ID:
        raise BadIdentifier(
            f"account id must match {_ID_PATTERN.pattern} and not be "
            f"{_RESERVED_ID!r}: {id!r}")
    return id


def solve_challenge(sealed_nonce: Envelope, private_key: bytes, verifier: Digest) -> Digest:
    """Client-side response: open the sealed nonce and bind it to the verifier."""
    nonce = open_envelope(private_key, sealed_nonce)
    return digest(nonce + verifier.value)


def _drop_expired(table: OrderedDict, expires_at: Callable, now: int):
    """Pop entries from the oldest end up to the first one still live."""
    while table and now > expires_at(next(iter(table.values()))):
        table.popitem(last=False)


class IdentityService:
    """Account, challenge, and session store behind one lock."""

    def __init__(self, clock: Callable[[], int] | None = None,
                 challenge_ttl: int = CHALLENGE_TTL_DEFAULT,
                 session_ttl: int = SESSION_TTL_DEFAULT):
        self._clock = clock or (lambda: int(time.time()))
        self._challenge_ttl = challenge_ttl
        self._session_ttl = session_ttl
        self._lock = threading.Lock()
        self._accounts: dict[str, Account] = {}
        # Both in issue order, so expired entries sit at the front. An
        # OrderedDict reaches its first entry in O(1); a dict rescans
        # the holes its front deletions leave.
        self._challenges: OrderedDict[bytes, Challenge] = OrderedDict()
        self._sessions: OrderedDict[bytes, SessionToken] = OrderedDict()

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
            _drop_expired(self._challenges, lambda c: c.issued_at + self._challenge_ttl, now)
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
        mismatched responses both burn it. Also drops the sessions that
        expired, oldest first, so the table holds only live ones.
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
            session = SessionToken(
                token=os.urandom(TOKEN_SIZE),
                account_id=challenge.account_id,
                expires_at=now + self._session_ttl,
            )
            _drop_expired(self._sessions, lambda s: s.expires_at, now)
            self._sessions[session.token] = session
            return session

    def validate_session(self, token: bytes) -> str:
        """Return the owning account id iff the token exists and is unexpired."""
        with self._lock:
            session = self._sessions.get(token)
            if session is None:
                raise InvalidToken("no such session")
            if self._clock() > session.expires_at:
                del self._sessions[token]
                raise Expired("session expired")
            return session.account_id

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

    def sessions(self) -> list[SessionToken]:
        """The unexpired sessions: what is worth persisting."""
        with self._lock:
            now = self._clock()
            return [s for s in self._sessions.values() if now <= s.expires_at]

    def restore_account(self, account: Account):
        """Load a persisted account; duplicate ids still raise."""
        with self._lock:
            if account.id in self._accounts:
                raise DuplicateId(f"account already registered: {account.id}")
            self._accounts[account.id] = account

    def restore_session(self, session: SessionToken):
        with self._lock:
            self._sessions[session.token] = session
