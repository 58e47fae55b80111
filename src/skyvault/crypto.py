"""Deterministic cryptographic primitives shared by every subsystem.

A single 32-byte keypair serves both signing and sealing: the private
half is an Ed25519 seed, the public half the matching Ed25519 public
key. Sealing maps both halves to their X25519 counterparts (the same
birational conversion libsodium ships), runs an ephemeral Diffie-Hellman
exchange, and encrypts with AES-256-GCM under an HKDF-derived key. The
ephemeral public key rides along as associated data, so any bit flip
anywhere in an envelope fails authentication.

All digest renderings are lowercase hex; keys and envelopes render as
base64url without padding (see :mod:`skyvault.wire`).
"""

from __future__ import annotations

import functools
import hashlib
import os

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import (
    AuthFailed,
    BadKeyLength,
    BadSeedLength,
    EmptyIdentifier,
    EmptyPassword,
    OpenFailed,
)
from .wire import Record, pack_fields, unpack_fields

DIGEST_SIZE = 32
KEY_SIZE = 32
SEED_SIZE = 32
NONCE_SIZE = 12
SYM_KEY_SIZES = (16, 32)

_SEAL_INFO = b"skyvault-seal-v1"

# Curve constants for mapping Ed25519 public points onto Curve25519.
_P = 2**255 - 19
_D = (-121665 * pow(121666, _P - 2, _P)) % _P

# Recipients whose X25519 key stays cached. The map is pure Python and
# costs more than the rest of a seal, and a server seals to the same
# few accounts over and over. 64 bytes of key per entry.
_X_PUBLIC_CACHE_SIZE = 4096


class Digest(Record):
    """A SHA-256 output; the one digest used everywhere in this package."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != DIGEST_SIZE:
            raise ValueError(f"digest must be {DIGEST_SIZE} bytes, got {len(self.value)}")

    @property
    def hex(self) -> str:
        return self.value.hex()

    @classmethod
    def from_hex(cls, text: str) -> "Digest":
        return cls(bytes.fromhex(text))


class KeyPair(Record):
    """32-byte public key plus the 32-byte seed it was derived from.

    The seed never appears in any wire message or persisted public
    record; keep it out of logs.
    """

    public_key: bytes
    private_key: bytes


class Envelope(Record):
    """Asymmetric sealed message: only the recipient's private key opens it."""

    ephemeral_public: bytes
    nonce: bytes
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        return pack_fields([self.ephemeral_public, self.nonce, self.ciphertext])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Envelope":
        epk, nonce, ct = unpack_fields(data, expected=3)
        return cls(ephemeral_public=epk, nonce=nonce, ciphertext=ct)


class Credential(Record):
    """Registration credential: the verifier goes to the server, never the password."""

    id: str
    verifier: Digest


def digest(data: bytes) -> Digest:
    return Digest(hashlib.sha256(data).digest())


def derive_credential(id: str, password: str) -> Credential:
    """Password verifier: SHA-256(password || SHA-256(id)).

    The concatenation order (password first, then the id hash) is fixed
    and test-vectored; both sides of the login protocol must agree on it.
    """
    if not id:
        raise EmptyIdentifier("identifier must be non-empty")
    if not password:
        raise EmptyPassword("password must be non-empty")
    inner = digest(id.encode("utf-8"))
    verifier = digest(password.encode("utf-8") + inner.value)
    return Credential(id=id, verifier=verifier)


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Create a keypair; with a seed the result is fully deterministic."""
    if seed is None:
        seed = os.urandom(SEED_SIZE)
    elif len(seed) != SEED_SIZE:
        raise BadSeedLength(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    public = Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
    return KeyPair(public_key=public, private_key=seed)


@functools.lru_cache(maxsize=_X_PUBLIC_CACHE_SIZE)
def _ed_public_to_x_public(ed_public: bytes) -> bytes:
    """Map an Ed25519 public key to the equivalent X25519 public key.

    Decompresses the Edwards point and applies u = (1+y)/(1-y); matches
    libsodium's crypto_sign_ed25519_pk_to_curve25519. Results are cached
    per key; a key that raises is not cached and raises on every call.
    """
    if len(ed_public) != KEY_SIZE:
        raise BadKeyLength(f"public key must be {KEY_SIZE} bytes, got {len(ed_public)}")
    y = int.from_bytes(ed_public, "little") & ((1 << 255) - 1)
    if y >= _P:
        raise ValueError("public key is not a curve point")
    y2 = (y * y) % _P
    x2 = ((y2 - 1) * pow(_D * y2 + 1, _P - 2, _P)) % _P
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x) % _P != x2:
        x = (x * pow(2, (_P - 1) // 4, _P)) % _P
    if (x * x) % _P != x2:
        raise ValueError("public key is not a curve point")
    if y == 1:
        raise ValueError("public key is the identity point")
    u = ((1 + y) * pow(1 - y, _P - 2, _P)) % _P
    return u.to_bytes(32, "little")


def _x_private_from_seed(seed: bytes) -> X25519PrivateKey:
    # Same scalar derivation Ed25519 signing uses; X25519 clamps internally.
    return X25519PrivateKey.from_private_bytes(hashlib.sha512(seed).digest()[:32])


def _seal_key(shared: bytes, ephemeral_public: bytes, recipient_x_public: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=KEY_SIZE,
        salt=None,
        info=_SEAL_INFO + ephemeral_public + recipient_x_public,
    ).derive(shared)


def seal(recipient_public: bytes, plaintext: bytes) -> Envelope:
    """Encrypt so that only the holder of the matching private key can read.

    Randomized: two seals of the same message differ.
    """
    recipient_x = _ed_public_to_x_public(recipient_public)
    ephemeral = X25519PrivateKey.generate()
    ephemeral_public = ephemeral.public_key().public_bytes_raw()
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(recipient_x))
    key = _seal_key(shared, ephemeral_public, recipient_x)
    nonce = os.urandom(NONCE_SIZE)
    ciphertext = AESGCM(key).encrypt(nonce, plaintext, ephemeral_public)
    return Envelope(ephemeral_public=ephemeral_public, nonce=nonce, ciphertext=ciphertext)


def open_envelope(recipient_private: bytes, env: Envelope) -> bytes:
    """Inverse of :func:`seal`; raises :class:`OpenFailed` on wrong key or tampering."""
    if len(recipient_private) != SEED_SIZE:
        raise BadKeyLength(f"private key must be {SEED_SIZE} bytes, got {len(recipient_private)}")
    try:
        x_private = _x_private_from_seed(recipient_private)
        recipient_x = x_private.public_key().public_bytes_raw()
        shared = x_private.exchange(X25519PublicKey.from_public_bytes(env.ephemeral_public))
        key = _seal_key(shared, env.ephemeral_public, recipient_x)
        return AESGCM(key).decrypt(env.nonce, env.ciphertext, env.ephemeral_public)
    except (InvalidTag, ValueError):
        raise OpenFailed("envelope cannot be opened: wrong key or tampered data") from None


def sym_encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """AES-GCM encrypt; the nonce must be unique per key."""
    _check_sym_key(key)
    _check_nonce(nonce)
    return AESGCM(key).encrypt(nonce, plaintext, None)


def sym_decrypt(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    _check_sym_key(key)
    _check_nonce(nonce)
    try:
        return AESGCM(key).decrypt(nonce, ciphertext, None)
    except InvalidTag:
        raise AuthFailed("decryption failed: wrong key or tampered ciphertext") from None


def _check_sym_key(key: bytes):
    if len(key) not in SYM_KEY_SIZES:
        raise BadKeyLength(f"symmetric key must be one of {SYM_KEY_SIZES} bytes, got {len(key)}")


def _check_nonce(nonce: bytes):
    if len(nonce) != NONCE_SIZE:
        raise ValueError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")


def sign(private: bytes, message: bytes) -> bytes:
    """Deterministic Ed25519 signature over the message."""
    if len(private) != SEED_SIZE:
        raise BadKeyLength(f"private key must be {SEED_SIZE} bytes, got {len(private)}")
    return Ed25519PrivateKey.from_private_bytes(private).sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature is valid; never raises on bad input."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except Exception:
        return False
