"""License issuance, rule evaluation, secret blocks, and the purchase flow.

A license seals the content key to the consumer's public key and binds
usage terms (validity window, use budget, allowed actions) under a
recomputable license hash. The purchase flow additionally produces a
secret block, the consumer-only record of the deal: it is sealed to the
consumer, never persisted in plaintext by the provider, and the public
chain carries only its digest.

Deny reasons are evaluated in a fixed order so outcomes are
reproducible: ActionForbidden, then NotYetValid, then Expired, then
UsesExhausted. An allow returns the license with one more use spent;
a deny raises ``RightsDenied`` carrying the reason.

Canonical byte layouts (field framing per :mod:`skyvault.wire`):

* key rules: ``u64(not_before), u64(not_after), u64(max_uses),
  u64(offline_allowed)`` with unlimited uses encoded as 2**64-1;
* rights: the allowed action names, UTF-8, sorted;
* content info (committed on chain): ``utf8(title),
  utf8(skylink_text)``;
* license record: ``license_id, utf8(consumer_id),
  consumer_public_key, content_id, enveloped_content_key,
  key_rules, rights, consumer_fingerprint, u64(issued_at),
  license_hash`` where license_hash = digest over the packed prior
  nine fields and consumer_fingerprint = digest(utf8(consumer_id) ‖
  content_id);
* secret block: ``block_hash, prev_public_hash, u64(time), auth_info,
  utf8(provider_info), encrypted_content_info, license_info`` where
  block_hash = digest over the packed six following fields and
  auth_info = digest(session token octets ‖ utf8(consumer_id)).

The use counter is local evaluator state: it is persisted beside the
canonical record (see :mod:`skyvault.state`) but is excluded from the
record and the hash.
"""

from __future__ import annotations

import os
from typing import Optional

from .crypto import Digest, Envelope, KeyPair, digest, open_envelope, seal
from .errors import (
    EmptyRights,
    InvalidRules,
    InvalidToken,
    Expired as SessionExpired,
    LedgerRejected,
    NotAuthenticated,
    RightsDenied,
    SkyVaultError,
    UnknownAction,
    UnknownContent,
    UnknownSkylink,
)
from .identity import Account, IdentityService, SessionToken
from .ledger import Chain, make_transaction
from .storage import SkyLink, StorageNetwork, open_file_key
from .wire import Record, pack_fields, read_u64, u64, unpack_fields

LICENSE_ID_SIZE = 16
UNLIMITED_USES = (1 << 64) - 1

ACTION_STREAM = "stream"
ACTION_DOWNLOAD = "download"
ACTION_RELICENSE = "re-license"
ALL_ACTIONS = frozenset({ACTION_STREAM, ACTION_DOWNLOAD, ACTION_RELICENSE})


class KeyRules(Record):
    """How the content key may be used: window, budget, offline flag."""

    not_before: int
    not_after: int
    max_uses: Optional[int] = None
    offline_allowed: bool = False

    def __post_init__(self):
        if not 0 <= self.not_before <= self.not_after <= UNLIMITED_USES:
            raise InvalidRules(f"not_before {self.not_before} and not_after "
                               f"{self.not_after} must be u64 times in order")
        if self.max_uses is not None and not 0 <= self.max_uses < UNLIMITED_USES:
            raise InvalidRules(f"max_uses out of range: {self.max_uses}")

    def to_bytes(self) -> bytes:
        max_uses = UNLIMITED_USES if self.max_uses is None else self.max_uses
        return pack_fields([u64(self.not_before), u64(self.not_after),
                            u64(max_uses), u64(int(self.offline_allowed))])

    @classmethod
    def from_bytes(cls, data: bytes) -> "KeyRules":
        fields = unpack_fields(data, expected=4)
        max_uses, offline = read_u64(fields[2]), read_u64(fields[3])
        if offline > 1:
            raise ValueError(f"offline flag must be 0 or 1, got {offline}")
        return cls(
            not_before=read_u64(fields[0]),
            not_after=read_u64(fields[1]),
            max_uses=None if max_uses == UNLIMITED_USES else max_uses,
            offline_allowed=bool(offline),
        )


class Rights(Record):
    """Actions the consumer may take; granting re-license is always explicit."""

    allowed_actions: frozenset[str]

    def __post_init__(self):
        if not self.allowed_actions:
            raise EmptyRights("rights must allow at least one action")
        unknown = set(self.allowed_actions) - ALL_ACTIONS
        if unknown:
            raise UnknownAction(f"unknown actions: {sorted(unknown)}")
        object.__setattr__(self, "allowed_actions", frozenset(self.allowed_actions))

    @classmethod
    def default(cls) -> "Rights":
        return cls(frozenset({ACTION_STREAM, ACTION_DOWNLOAD}))

    def to_bytes(self) -> bytes:
        return pack_fields([a.encode("utf-8") for a in sorted(self.allowed_actions)])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Rights":
        rights = cls(frozenset(f.decode("utf-8") for f in unpack_fields(data)))
        if rights.to_bytes() != data:
            raise ValueError("actions not listed once each, sorted")
        return rights


class License(Record):
    """Signed-by-hash usage grant; ``uses_consumed`` is local state."""

    license_id: bytes
    consumer_id: str
    consumer_public_key: bytes
    content_id: Digest
    enveloped_content_key: Envelope
    key_rules: KeyRules
    rights: Rights
    consumer_fingerprint: Digest
    issued_at: int
    license_hash: Digest
    uses_consumed: int = 0

    def __post_init__(self):
        # Only check_rights moves the counter: from 0, by one, up to max_uses.
        max_uses = self.key_rules.max_uses
        if self.uses_consumed < 0 or (max_uses is not None and self.uses_consumed > max_uses):
            raise ValueError(f"license use counter {self.uses_consumed!r} is out of range")

    def hashed_fields(self) -> list[bytes]:
        return [
            self.license_id,
            self.consumer_id.encode("utf-8"),
            self.consumer_public_key,
            self.content_id.value,
            self.enveloped_content_key.to_bytes(),
            self.key_rules.to_bytes(),
            self.rights.to_bytes(),
            self.consumer_fingerprint.value,
            u64(self.issued_at),
        ]

    def compute_hash(self) -> Digest:
        return digest(pack_fields(self.hashed_fields()))

    def canonical_bytes(self) -> bytes:
        return pack_fields(self.hashed_fields() + [self.license_hash.value])

    @classmethod
    def from_canonical_bytes(cls, data: bytes) -> "License":
        fields = unpack_fields(data, expected=10)
        lic = cls(
            license_id=fields[0],
            consumer_id=fields[1].decode("utf-8"),
            consumer_public_key=fields[2],
            content_id=Digest(fields[3]),
            enveloped_content_key=Envelope.from_bytes(fields[4]),
            key_rules=KeyRules.from_bytes(fields[5]),
            rights=Rights.from_bytes(fields[6]),
            consumer_fingerprint=Digest(fields[7]),
            issued_at=read_u64(fields[8]),
            license_hash=Digest(fields[9]),
        )
        if lic.compute_hash() != lic.license_hash:
            raise ValueError("license hash does not recompute")
        if consumer_fingerprint(lic.consumer_id, lic.content_id) != lic.consumer_fingerprint:
            raise ValueError("consumer fingerprint does not recompute")
        return lic


class SecretBlock(Record):
    """Consumer-only purchase record; the chain sees only its digest."""

    block_hash: Digest
    prev_public_hash: Digest
    time: int
    auth_info: Digest
    provider_info: str
    encrypted_content_info: Envelope
    license_info: Digest

    def hashed_fields(self) -> list[bytes]:
        return [
            self.prev_public_hash.value,
            u64(self.time),
            self.auth_info.value,
            self.provider_info.encode("utf-8"),
            self.encrypted_content_info.to_bytes(),
            self.license_info.value,
        ]

    def compute_hash(self) -> Digest:
        return digest(pack_fields(self.hashed_fields()))

    def to_bytes(self) -> bytes:
        return pack_fields([self.block_hash.value] + self.hashed_fields())

    @classmethod
    def from_bytes(cls, data: bytes) -> "SecretBlock":
        fields = unpack_fields(data, expected=7)
        block = cls(
            block_hash=Digest(fields[0]),
            prev_public_hash=Digest(fields[1]),
            time=read_u64(fields[2]),
            auth_info=Digest(fields[3]),
            provider_info=fields[4].decode("utf-8"),
            encrypted_content_info=Envelope.from_bytes(fields[5]),
            license_info=Digest(fields[6]),
        )
        if block.compute_hash() != block.block_hash:
            raise ValueError("secret block hash does not recompute")
        return block


class PurchaseResult(Record):
    license: License
    sealed_secret_block: Envelope
    tx_id: Digest


def consumer_fingerprint(consumer_id: str, content_id: Digest) -> Digest:
    """Deterministic consumer-to-content binding for traceability lookups."""
    return digest(consumer_id.encode("utf-8") + content_id.value)


def content_info_bytes(title: str, skylink: SkyLink) -> bytes:
    return pack_fields([title.encode("utf-8"), skylink.text.encode("utf-8")])


def auth_info_digest(session_token: SessionToken, consumer_id: str) -> Digest:
    """Proves the purchase ran under a session without storing the token."""
    return digest(session_token.token + consumer_id.encode("utf-8"))


def issue_license(provider: KeyPair, consumer: Account, content_id: Digest,
                  content_key: bytes, rules: KeyRules, rights: Rights,
                  now: int) -> License:
    """Seal the content key to the consumer and bind the terms under a hash."""
    lic = License(
        license_id=os.urandom(LICENSE_ID_SIZE),
        consumer_id=consumer.id,
        consumer_public_key=consumer.public_key,
        content_id=content_id,
        enveloped_content_key=seal(consumer.public_key, content_key),
        key_rules=rules,
        rights=rights,
        consumer_fingerprint=consumer_fingerprint(consumer.id, content_id),
        issued_at=now,
        license_hash=Digest(b"\x00" * 32),
    )
    return lic.replace(license_hash=lic.compute_hash())


def check_rights(license: License, action: str, now: int) -> License:
    """Evaluate one action request; an allow returns LICENSE spent once more."""
    max_uses = license.key_rules.max_uses
    if action not in license.rights.allowed_actions:
        reason = "ActionForbidden"
    elif now < license.key_rules.not_before:
        reason = "NotYetValid"
    elif now > license.key_rules.not_after:
        reason = "Expired"
    elif max_uses is not None and license.uses_consumed >= max_uses:
        reason = "UsesExhausted"
    else:
        return license.replace(uses_consumed=license.uses_consumed + 1)
    raise RightsDenied(f"rights denied: {reason}", reason=reason)


def redeem_license(consumer_private: bytes, license: License, action: str,
                   now: int) -> tuple[License, bytes]:
    """The license spent once more and the content key, iff ACTION is allowed now."""
    spent = check_rights(license, action, now)
    return spent, open_envelope(consumer_private, license.enveloped_content_key)


def build_secret_block(license: License, session_token: SessionToken,
                       provider_name: str, chain_tip_hash: Digest,
                       content_title: str, skylink: SkyLink,
                       consumer_public: bytes, now: int) -> tuple[SecretBlock, Envelope]:
    """Assemble the consumer-only record and seal it; plaintext never persists."""
    block = SecretBlock(
        block_hash=Digest(b"\x00" * 32),
        prev_public_hash=chain_tip_hash,
        time=now,
        auth_info=auth_info_digest(session_token, license.consumer_id),
        provider_info=provider_name,
        encrypted_content_info=seal(
            consumer_public, content_info_bytes(content_title, skylink)),
        license_info=license.license_hash,
    )
    block = block.replace(block_hash=block.compute_hash())
    return block, seal(consumer_public, block.to_bytes())


def execute_purchase(identity: IdentityService, session_token: SessionToken,
                     content_id: Digest, content_title: str, provider: KeyPair,
                     provider_name: str, consumer_account: Account,
                     network: StorageNetwork, chain: Chain, rules: KeyRules,
                     rights: Rights, now: int) -> PurchaseResult:
    """One purchase end to end: license, secret block, signed commitment.

    Nothing is recorded unless every step succeeds; the ledger
    submission is last, so a rejection leaves no partial state.
    """
    try:
        session_owner = identity.validate_session(session_token.token)
    except (InvalidToken, SessionExpired) as exc:
        raise NotAuthenticated(f"session invalid: {exc}") from exc
    if session_owner != consumer_account.id:
        raise NotAuthenticated("session does not belong to the consumer")

    skylink = SkyLink.from_digest(content_id)
    try:
        manifest = network.lookup(skylink)
    except UnknownSkylink as exc:
        raise UnknownContent(f"no content for id {content_id.hex}") from exc

    content_key = open_file_key(manifest, provider.private_key)
    license = issue_license(provider, consumer_account, content_id,
                            content_key, rules, rights, now)
    secret_block, sealed = build_secret_block(
        license, session_token, provider_name, Digest(chain.tip_hash()),
        content_title, skylink, consumer_account.public_key, now)
    tx = make_transaction(
        provider=provider,
        consumer_public=consumer_account.public_key,
        content_commitment=digest(content_info_bytes(content_title, skylink)),
        secret_commitment=digest(secret_block.to_bytes()),
        timestamp=now,
    )
    try:
        chain.submit(tx, provider.public_key)
    except SkyVaultError as exc:
        raise LedgerRejected(f"chain refused the transaction: {exc}") from exc
    return PurchaseResult(license=license, sealed_secret_block=sealed, tx_id=tx.tx_id)
