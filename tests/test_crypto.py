import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyvault import crypto
from skyvault.crypto import (
    Digest,
    Envelope,
    derive_credential,
    digest,
    generate_keypair,
    open_envelope,
    seal,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify,
)
from skyvault.errors import (
    AuthFailed,
    BadKeyLength,
    BadSeedLength,
    EmptyIdentifier,
    EmptyPassword,
    OpenFailed,
)

from conftest import openssl_sha256, requires_openssl

# Standard SHA-256 vectors, independently recomputed with the openssl CLI.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

# openssl: {printf pw; printf alice | openssl dgst -sha256 -binary} | openssl dgst -sha256
VERIFIER_ALICE_PW = "088e73287c6c49d97936860390095441eeae22e0fa6c36e0068bb589398d50e0"
VERIFIER_ALICE_HUNTER2ABC = "f42a7c49db907876a9b62279ec61e0d9a96d0658ac31993ed8c2b4b5d22a908d"
VERIFIER_ALICEP_W = "37e1165c49953d92914e38506ef9556441ba96222cd98e972e3b92c8cbb9e576"

# Keypair from seed 0x00..0x1f; x25519 half independently computed with the
# RFC 7748 ladder (OpenSSL X25519) over the converted private scalar.
SEED_VECTOR = bytes(range(32))
ED_PUBLIC_VECTOR = "03a107bff3ce10be1d70dd18e74bc09967e4d6309ba50d5f1ddc8664125531b8"
X_PUBLIC_VECTOR = "4701d08488451f545a409fb58ae3e58581ca40ac3f7f114698cd71deac73ca01"


class TestDigest:
    def test_empty_vector(self):
        assert digest(b"").hex == SHA256_EMPTY

    def test_abc_vector(self):
        assert digest(b"abc").hex == SHA256_ABC

    def test_deterministic(self, rng):
        data = rng.randbytes(100)
        assert digest(data) == digest(data)

    def test_hex_rendering_lowercase_64_chars(self, rng):
        h = digest(rng.randbytes(16)).hex
        assert len(h) == 64 and h == h.lower()

    def test_round_trip_hex(self, rng):
        d = digest(rng.randbytes(8))
        assert Digest.from_hex(d.hex) == d

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Digest(b"\x00" * 31)

    @requires_openssl
    def test_oracle_equivalence_100_random_inputs(self, rng):
        for _ in range(100):
            data = rng.randbytes(rng.randrange(0, 512))
            assert digest(data).hex == openssl_sha256(data)


class TestCredential:
    def test_alice_pw_vector(self):
        cred = derive_credential("alice", "pw")
        assert cred.verifier.hex == VERIFIER_ALICE_PW

    def test_concatenation_boundary(self):
        # ("alice","pw") and ("alicep","w") must not collide.
        assert derive_credential("alicep", "w").verifier.hex == VERIFIER_ALICEP_W
        assert VERIFIER_ALICEP_W != VERIFIER_ALICE_PW

    def test_deterministic(self):
        a = derive_credential("bob", "secret123")
        b = derive_credential("bob", "secret123")
        assert a.verifier == b.verifier

    def test_matches_recomputed_composition(self, rng):
        for _ in range(20):
            ident = "user%d" % rng.randrange(10**6)
            password = "pw%d" % rng.randrange(10**6)
            expected = hashlib.sha256(
                password.encode() + hashlib.sha256(ident.encode()).digest()).hexdigest()
            assert derive_credential(ident, password).verifier.hex == expected

    def test_empty_id_rejected(self):
        with pytest.raises(EmptyIdentifier):
            derive_credential("", "pw")

    def test_empty_password_rejected(self):
        with pytest.raises(EmptyPassword):
            derive_credential("alice", "")

    def test_injective_birthday_sample(self, rng):
        seen = set()
        for i in range(10_000):
            v = derive_credential(f"id{i}", f"pw{rng.randrange(10**9)}").verifier.value
            assert v not in seen
            seen.add(v)


class TestKeypair:
    def test_seeded_deterministic(self):
        a = generate_keypair(seed=SEED_VECTOR)
        b = generate_keypair(seed=SEED_VECTOR)
        assert a.public_key == b.public_key == bytes.fromhex(ED_PUBLIC_VECTOR)

    def test_unseeded_distinct(self):
        assert generate_keypair().public_key != generate_keypair().public_key

    def test_short_seed_rejected(self):
        with pytest.raises(BadSeedLength):
            generate_keypair(seed=b"\x01" * 31)

    def test_edwards_to_montgomery_vector(self):
        mapped = crypto._ed_public_to_x_public(bytes.fromhex(ED_PUBLIC_VECTOR))
        assert mapped == bytes.fromhex(X_PUBLIC_VECTOR)

    def test_edwards_map_agrees_with_ladder(self, rng):
        # Oracle: OpenSSL's X25519 scalar multiplication over the converted
        # private scalar must land on the same public point as the map.
        from cryptography.hazmat.primitives import serialization

        for _ in range(25):
            seed = rng.randbytes(32)
            kp = generate_keypair(seed=seed)
            ladder = crypto._x_private_from_seed(seed).public_key().public_bytes(
                serialization.Encoding.Raw, serialization.PublicFormat.Raw)
            assert crypto._ed_public_to_x_public(kp.public_key) == ladder

    def test_edwards_map_cache_matches_uncached(self, rng):
        for _ in range(50):
            public = generate_keypair(seed=rng.randbytes(32)).public_key
            # The first call fills the cache and the second reads it.
            assert crypto._ed_public_to_x_public(public) == \
                crypto._ed_public_to_x_public.__wrapped__(public)
            assert crypto._ed_public_to_x_public(public) == \
                crypto._ed_public_to_x_public.__wrapped__(public)

    def test_edwards_map_failures_not_cached(self):
        not_a_point = b"\xff" * 32  # y >= p once the sign bit is masked
        for _ in range(2):
            with pytest.raises(ValueError):
                crypto._ed_public_to_x_public(not_a_point)
        for _ in range(2):
            with pytest.raises(BadKeyLength):
                crypto._ed_public_to_x_public(b"\x01" * 31)


class TestSeal:
    def test_round_trip_32_bytes(self, rng):
        kp = generate_keypair()
        message = rng.randbytes(32)
        assert open_envelope(kp.private_key, seal(kp.public_key, message)) == message

    def test_seal_is_randomized(self):
        kp = generate_keypair()
        a = seal(kp.public_key, b"same message")
        b = seal(kp.public_key, b"same message")
        assert a != b

    def test_wrong_private_key_fails(self):
        kp, other = generate_keypair(), generate_keypair()
        env = seal(kp.public_key, b"for kp only")
        with pytest.raises(OpenFailed):
            open_envelope(other.private_key, env)

    def test_ciphertext_not_shorter_than_plaintext(self, rng):
        kp = generate_keypair()
        for size in (0, 1, 17, 100):
            env = seal(kp.public_key, rng.randbytes(size))
            assert len(env.ciphertext) >= size

    def test_exhaustive_bit_flip_fails(self):
        kp = generate_keypair(seed=b"\x07" * 32)
        env = seal(kp.public_key, b"short")
        raw = env.to_bytes()
        for bit in range(len(raw) * 8):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                tampered = Envelope.from_bytes(bytes(flipped))
            except ValueError:
                continue  # framing destroyed; cannot even parse
            with pytest.raises((OpenFailed, BadKeyLength)):
                open_envelope(kp.private_key, tampered)

    def test_envelope_wire_round_trip(self, rng):
        kp = generate_keypair()
        env = seal(kp.public_key, rng.randbytes(64))
        assert Envelope.from_bytes(env.to_bytes()) == env

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=1 << 20))
    def test_round_trip_property(self, message):
        kp = generate_keypair(seed=b"\x21" * 32)
        assert open_envelope(kp.private_key, seal(kp.public_key, message)) == message


class TestSymmetric:
    KEY = bytes(range(32))
    NONCE = bytes(12)

    def test_empty_round_trip(self):
        ct = sym_encrypt(self.KEY, self.NONCE, b"")
        assert sym_decrypt(self.KEY, self.NONCE, ct) == b""

    def test_wrong_key_fails(self):
        ct = sym_encrypt(self.KEY, self.NONCE, b"payload")
        with pytest.raises(AuthFailed):
            sym_decrypt(bytes(32), self.NONCE, ct)

    def test_single_bit_corruption_sweep(self):
        ct = sym_encrypt(self.KEY, self.NONCE, b"tamper target")
        for bit in range(len(ct) * 8):
            bad = bytearray(ct)
            bad[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(AuthFailed):
                sym_decrypt(self.KEY, self.NONCE, bytes(bad))

    def test_16_byte_key_variant(self, rng):
        key, nonce, msg = rng.randbytes(16), rng.randbytes(12), rng.randbytes(50)
        assert sym_decrypt(key, nonce, sym_encrypt(key, nonce, msg)) == msg

    def test_bad_key_length_rejected(self):
        with pytest.raises(BadKeyLength):
            sym_encrypt(b"\x00" * 20, self.NONCE, b"x")

    def test_bad_nonce_length_rejected(self):
        with pytest.raises(ValueError):
            sym_encrypt(self.KEY, b"\x00" * 11, b"x")

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=4096), st.binary(min_size=32, max_size=32),
           st.binary(min_size=12, max_size=12))
    def test_round_trip_property(self, message, key, nonce):
        assert sym_decrypt(key, nonce, sym_encrypt(key, nonce, message)) == message


class TestSignatures:
    def test_self_round_trip(self):
        kp = generate_keypair()
        sig = sign(kp.private_key, b"message")
        assert verify(kp.public_key, b"message", sig)

    def test_altered_message_rejected(self):
        kp = generate_keypair()
        sig = sign(kp.private_key, b"message")
        assert not verify(kp.public_key, b"messagE", sig)

    def test_foreign_key_rejected(self):
        a, b = generate_keypair(), generate_keypair()
        sig = sign(a.private_key, b"message")
        assert not verify(b.public_key, b"message", sig)

    def test_deterministic(self):
        kp = generate_keypair(seed=b"\x05" * 32)
        assert sign(kp.private_key, b"m") == sign(kp.private_key, b"m")

    def test_garbage_inputs_return_false(self):
        assert not verify(b"\x00" * 32, b"m", b"\x00" * 64)
        assert not verify(b"short", b"m", b"sig")
