import hashlib
import json
import os
import sys
import threading
import tracemalloc

import pytest

from skyvault.crypto import Digest, digest, generate_keypair, open_envelope
from skyvault.errors import (
    BadIdentifier,
    DuplicateId,
    Expired,
    InvalidToken,
    OpenFailed,
    ResponseMismatch,
    UnknownChallenge,
    UnknownId,
    WeakPassword,
)
from skyvault.identity import (
    SESSION_TTL_DEFAULT,
    Account,
    IdentityService,
    SessionToken,
    solve_challenge,
)
from skyvault.licensing import auth_info_digest
from skyvault.state import Config, StateDirectory, load_identity

# openssl: {printf hunter2abc; printf alice | openssl dgst -sha256 -binary} | dgst -sha256
VERIFIER_ALICE_HUNTER2ABC = "f42a7c49db907876a9b62279ec61e0d9a96d0658ac31993ed8c2b4b5d22a908d"


@pytest.fixture
def service(clock):
    return IdentityService(clock=clock)


@pytest.fixture
def alice():
    return generate_keypair(seed=b"\x0a" * 32)


def login(service, account_id, keypair, password):
    challenge = service.begin_auth(account_id)
    response = solve_challenge(
        challenge.sealed_nonce, keypair.private_key,
        digest_of_credential(account_id, password))
    return service.complete_auth(challenge.challenge_id, response)


def digest_of_credential(account_id, password):
    from skyvault.crypto import derive_credential
    return derive_credential(account_id, password).verifier


class TestRegister:
    def test_verifier_matches_oracle(self, service, alice):
        account = service.register("alice", "hunter2abc", alice.public_key)
        assert account.verifier.hex == VERIFIER_ALICE_HUNTER2ABC

    def test_duplicate_rejected(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        with pytest.raises(DuplicateId):
            service.register("alice", "hunter2abc", alice.public_key)

    def test_weak_password_rejected(self, service, alice):
        with pytest.raises(WeakPassword):
            service.register("alice", "short", alice.public_key)

    @pytest.mark.parametrize("bad_id", [
        "", "../../escaped", "a/b", "a\\b", "..", ".hidden", "-flag", "_x",
        "x" * 65, "alice\n", "al ice", "caf\u00e9", "a\x00b"])
    def test_unsafe_id_rejected(self, service, alice, bad_id):
        # Ids become file names under accounts/ and keys/.
        with pytest.raises(BadIdentifier) as caught:
            service.register(bad_id, "hunter2abc", alice.public_key)
        assert caught.value.code == "bad_identifier"
        assert service.accounts() == []

    @pytest.mark.parametrize("good_id", [
        "a", "alice", "9lives", "user-007", "a.b_c-D9", "sessions", "sessions2", "x" * 64])
    def test_file_name_safe_id_accepted(self, service, alice, good_id):
        assert service.register(good_id, "hunter2abc", alice.public_key).id == good_id

    def test_store_never_contains_password(self, service, rng):
        for i in range(20):
            password = "secret-%016x" % rng.getrandbits(64)
            kp = generate_keypair()
            account = service.register(f"user{i}", password, kp.public_key)
            serialized = json.dumps(account.to_json())
            assert password not in serialized


class TestBeginAuth:
    def test_sealed_nonce_openable_only_by_owner(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        challenge = service.begin_auth("alice")
        assert open_envelope(alice.private_key, challenge.sealed_nonce) == challenge.nonce
        with pytest.raises(OpenFailed):
            open_envelope(generate_keypair().private_key, challenge.sealed_nonce)

    def test_unknown_id(self, service):
        with pytest.raises(UnknownId):
            service.begin_auth("nobody")

    def test_challenges_are_distinct(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        a = service.begin_auth("alice")
        b = service.begin_auth("alice")
        assert a.nonce != b.nonce and a.challenge_id != b.challenge_id

    def test_expired_challenges_swept(self, service, alice, clock):
        service.register("alice", "hunter2abc", alice.public_key)
        for _ in range(2000):
            service.begin_auth("alice")
        clock.advance(121)
        live = service.begin_auth("alice")
        assert list(service._challenges) == [live.challenge_id]
        response = solve_challenge(
            live.sealed_nonce, alice.private_key,
            digest_of_credential("alice", "hunter2abc"))
        assert service.complete_auth(live.challenge_id, response).account_id == "alice"

    def test_sweep_keeps_unexpired_challenges(self, service, alice, clock):
        service.register("alice", "hunter2abc", alice.public_key)
        old = service.begin_auth("alice")
        clock.advance(120)  # old is at the last second of its ttl
        service.begin_auth("alice")
        assert old.challenge_id in service._challenges
        response = solve_challenge(
            old.sealed_nonce, alice.private_key,
            digest_of_credential("alice", "hunter2abc"))
        assert service.complete_auth(old.challenge_id, response).account_id == "alice"

    def test_challenge_shares_stored_account_id(self, service, alice):
        account = service.register("alice", "hunter2abc", alice.public_key)
        challenge = service.begin_auth("".join(["ali", "ce"]))
        assert challenge.account_id is account.id


class TestCompleteAuth:
    def test_correct_response_yields_session(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        session = login(service, "alice", alice, "hunter2abc")
        assert service.validate_session(session.token) == "alice"

    def test_response_formula_is_nonce_then_verifier(self, service, alice):
        # Protocol pin: response = SHA-256(nonce || verifier).
        service.register("alice", "hunter2abc", alice.public_key)
        challenge = service.begin_auth("alice")
        expected = hashlib.sha256(
            challenge.nonce + bytes.fromhex(VERIFIER_ALICE_HUNTER2ABC)).digest()
        session = service.complete_auth(challenge.challenge_id, Digest(expected))
        assert session.account_id == "alice"

    def test_wrong_password_rejected(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        challenge = service.begin_auth("alice")
        response = solve_challenge(
            challenge.sealed_nonce, alice.private_key,
            digest_of_credential("alice", "wrongpassword"))
        with pytest.raises(ResponseMismatch):
            service.complete_auth(challenge.challenge_id, response)

    def test_challenge_single_use_after_success(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        challenge = service.begin_auth("alice")
        response = solve_challenge(
            challenge.sealed_nonce, alice.private_key,
            digest_of_credential("alice", "hunter2abc"))
        service.complete_auth(challenge.challenge_id, response)
        with pytest.raises(UnknownChallenge):
            service.complete_auth(challenge.challenge_id, response)

    def test_challenge_consumed_on_mismatch(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        challenge = service.begin_auth("alice")
        bad = digest(b"guess")
        with pytest.raises(ResponseMismatch):
            service.complete_auth(challenge.challenge_id, bad)
        good = solve_challenge(
            challenge.sealed_nonce, alice.private_key,
            digest_of_credential("alice", "hunter2abc"))
        with pytest.raises(UnknownChallenge):
            service.complete_auth(challenge.challenge_id, good)

    def test_expired_challenge_rejected(self, service, alice, clock):
        service.register("alice", "hunter2abc", alice.public_key)
        challenge = service.begin_auth("alice")
        clock.advance(121)
        response = solve_challenge(
            challenge.sealed_nonce, alice.private_key,
            digest_of_credential("alice", "hunter2abc"))
        with pytest.raises(Expired):
            service.complete_auth(challenge.challenge_id, response)

    def test_unknown_challenge(self, service):
        with pytest.raises(UnknownChallenge):
            service.complete_auth(os.urandom(16), digest(b"x"))

    def test_forged_attempts_without_private_key_rejected(self, service, alice, rng):
        # Attacker knows id and public key but holds neither the private
        # key nor the password; random responses never authenticate.
        service.register("alice", "hunter2abc", alice.public_key)
        for _ in range(50):
            challenge = service.begin_auth("alice")
            with pytest.raises(ResponseMismatch):
                service.complete_auth(challenge.challenge_id, Digest(rng.randbytes(32)))


class TestSessions:
    def test_fresh_token_resolves(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        session = login(service, "alice", alice, "hunter2abc")
        assert service.validate_session(session.token) == "alice"

    def test_random_token_invalid(self, service):
        with pytest.raises(InvalidToken):
            service.validate_session(os.urandom(32))

    def test_expired_session(self, service, alice, clock):
        service.register("alice", "hunter2abc", alice.public_key)
        session = login(service, "alice", alice, "hunter2abc")
        clock.advance(3601)
        with pytest.raises(Expired):
            service.validate_session(session.token)

    def test_valid_through_expires_at(self, service, alice, clock):
        service.register("alice", "hunter2abc", alice.public_key)
        session = login(service, "alice", alice, "hunter2abc")
        clock.advance(session.expires_at - clock.now)
        assert service.validate_session(session.token) == "alice"
        clock.advance(1)
        with pytest.raises(Expired):
            service.validate_session(session.token)

    def test_every_bit_flip_and_truncation_invalid(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        token = login(service, "alice", alice, "hunter2abc").token
        for bit in range(len(token) * 8):
            flipped = bytearray(token)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(InvalidToken):
                service.validate_session(bytes(flipped))
        for end in range(len(token)):
            with pytest.raises(InvalidToken):
                service.validate_session(token[:end])

    def test_token_of_another_state_invalid(self, tmp_path, clock, alice):
        services = []
        for name in ("a", "b"):
            state = StateDirectory(tmp_path / name)
            state.initialize(Config())
            services.append(load_identity(state, state.load_config(), clock))
            services[-1].register("alice", "hunter2abc", alice.public_key)
        token = login(services[0], "alice", alice, "hunter2abc").token
        assert services[0].validate_session(token) == "alice"
        with pytest.raises(InvalidToken):
            services[1].validate_session(token)

    def test_logins_in_one_second_distinct(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        first, second = (login(service, "alice", alice, "hunter2abc") for _ in range(2))
        assert first.expires_at == second.expires_at  # the clock did not move
        assert first.token != second.token
        assert auth_info_digest(first, "alice") != auth_info_digest(second, "alice")

    def test_concurrent_logins_validate(self, service, alice):
        # Every token's tag is hashed from a copy of one keyed HMAC.
        service.register("alice", "hunter2abc", alice.public_key)
        tokens, errors = [], []

        def worker():
            try:
                for _ in range(200):
                    token = login(service, "alice", alice, "hunter2abc").token
                    assert service.validate_session(token) == "alice"
                    tokens.append(token)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(set(tokens)) == 800

    def test_expiry_past_u64_clamped(self, alice, clock):
        service = IdentityService(clock=clock, session_ttl=2**70)
        service.register("alice", "hunter2abc", alice.public_key)
        session = login(service, "alice", alice, "hunter2abc")
        assert session.expires_at == 2**64 - 1
        assert service.validate_session(session.token) == "alice"

    def test_logins_hold_no_memory(self, service, alice):
        # No session is kept: 20,000 logins at ~310 B per kept session
        # would hold about 6 MiB.
        service.register("alice", "hunter2abc", alice.public_key)
        verifier = digest_of_credential("alice", "hunter2abc")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20_000):
                challenge = service.begin_auth("alice")
                service.complete_auth(challenge.challenge_id,
                                      digest(challenge.nonce + verifier.value))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20, grown


class TestPersistenceFormats:
    def test_account_json_round_trip(self, service, alice):
        account = service.register("alice", "hunter2abc", alice.public_key)
        assert Account.from_json(json.loads(json.dumps(account.to_json()))) == account

    def test_session_json_round_trip(self, service, alice):
        service.register("alice", "hunter2abc", alice.public_key)
        session = login(service, "alice", alice, "hunter2abc")
        assert SessionToken.from_json(session.to_json()) == session

    def test_restore_round_trip(self, alice, clock):
        # A reloaded service needs the key, and no table, to accept a token.
        key = os.urandom(32)
        service = IdentityService(clock=clock, session_key=key)
        account = service.register("alice", "hunter2abc", alice.public_key)
        session = login(service, "alice", alice, "hunter2abc")
        reloaded = IdentityService(clock=clock, session_key=key)
        reloaded.restore_account(Account.from_json(account.to_json()))
        token = SessionToken.from_json(session.to_json()).token
        assert reloaded.validate_session(token) == "alice"
