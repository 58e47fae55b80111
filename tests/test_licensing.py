"""Licensing: issuance, rule evaluation, secret blocks, purchase flow."""

import json

import pytest

from skyvault.crypto import Digest, digest, generate_keypair, open_envelope
from skyvault.errors import (
    EmptyRights,
    InvalidRules,
    LedgerRejected,
    NotAuthenticated,
    OpenFailed,
    RightsDenied,
    UnknownAction,
    UnknownContent,
)
from skyvault.identity import IdentityService, SessionToken
from skyvault.ledger import Chain, confirm_secret
from skyvault.licensing import (
    ACTION_DOWNLOAD,
    ACTION_RELICENSE,
    ACTION_STREAM,
    KeyRules,
    License,
    Rights,
    SecretBlock,
    auth_info_digest,
    build_secret_block,
    check_rights,
    consumer_fingerprint,
    content_info_bytes,
    execute_purchase,
    issue_license,
    redeem_license,
)
from skyvault.state import Config, StateDirectory
from skyvault.storage import SkyLink, StorageNetwork, upload

PROVIDER = generate_keypair(bytes(range(32)))
CONSUMER = generate_keypair(bytes(range(32, 64)))

NOW = 1_700_000_000


def make_account(identity, name="alice-consumer", keypair=CONSUMER):
    return identity.register(name, "correct horse battery", keypair.public_key)


def window(offset_before=-100, offset_after=+100, max_uses=None):
    return KeyRules(not_before=NOW + offset_before, not_after=NOW + offset_after,
                    max_uses=max_uses)


@pytest.fixture
def identity(clock):
    return IdentityService(clock=clock)


@pytest.fixture
def account(identity):
    return make_account(identity)


def sample_license(account, max_uses=None, rights=None, content_key=b"\x42" * 32):
    return issue_license(
        provider=PROVIDER,
        consumer=account,
        content_id=digest(b"some content"),
        content_key=content_key,
        rules=window(max_uses=max_uses),
        rights=rights or Rights.default(),
        now=NOW,
    )


class TestRules:
    def test_window_must_be_ordered(self):
        with pytest.raises(InvalidRules):
            KeyRules(not_before=NOW + 1, not_after=NOW)

    def test_negative_uses_rejected(self):
        with pytest.raises(InvalidRules):
            KeyRules(not_before=NOW, not_after=NOW, max_uses=-1)

    def test_rules_round_trip(self):
        for rules in (window(), window(max_uses=0), window(max_uses=7),
                      KeyRules(NOW, NOW + 1, None, offline_allowed=True)):
            assert KeyRules.from_bytes(rules.to_bytes()) == rules

    def test_rights_round_trip(self):
        for actions in ({ACTION_STREAM}, {ACTION_STREAM, ACTION_DOWNLOAD},
                        {ACTION_STREAM, ACTION_DOWNLOAD, ACTION_RELICENSE}):
            rights = Rights(frozenset(actions))
            assert Rights.from_bytes(rights.to_bytes()) == rights

    def test_empty_rights_rejected(self):
        with pytest.raises(EmptyRights):
            Rights(frozenset())

    def test_unknown_action_rejected(self):
        with pytest.raises(UnknownAction):
            Rights(frozenset({"teleport"}))

    def test_relicense_not_in_default(self):
        assert ACTION_RELICENSE not in Rights.default().allowed_actions


class TestIssueLicense:
    def test_consumer_redeems_content_key(self, account):
        key = b"\x13" * 32
        lic = sample_license(account, content_key=key)
        _, released = redeem_license(CONSUMER.private_key, lic, ACTION_STREAM, NOW)
        assert released == key

    def test_provider_cannot_open_envelope(self, account):
        lic = sample_license(account)
        with pytest.raises(OpenFailed):
            open_envelope(PROVIDER.private_key, lic.enveloped_content_key)

    def test_license_hash_recomputes(self, account):
        # Oracle: recompute the hash from scratch over the packed fields.
        from skyvault.wire import pack_fields
        lic = sample_license(account)
        assert digest(pack_fields(lic.hashed_fields())) == lic.license_hash

    def test_fingerprint_recomputes(self, account):
        lic = sample_license(account)
        expected = digest(account.id.encode() + lic.content_id.value)
        assert lic.consumer_fingerprint == expected

    def test_license_ids_random(self, account):
        a, b = sample_license(account), sample_license(account)
        assert a.license_id != b.license_id
        assert len(a.license_id) == 16

    def test_every_field_mutation_changes_hash(self, account):
        # License integrity: single-field changes never collide.
        lic = sample_license(account, max_uses=4)
        variants = [
            lic.replace(license_id=bytes(16)),
            lic.replace(consumer_id="mallory-rival"),
            lic.replace(consumer_public_key=bytes(32)),
            lic.replace(content_id=digest(b"other content")),
            lic.replace(enveloped_content_key=lic.enveloped_content_key.replace(nonce=bytes(12))),
            lic.replace(key_rules=window(max_uses=5)),
            lic.replace(rights=Rights(frozenset({ACTION_STREAM}))),
            lic.replace(consumer_fingerprint=digest(b"x")),
            lic.replace(issued_at=lic.issued_at + 1),
        ]
        hashes = {v.compute_hash().value for v in variants}
        assert len(hashes) == len(variants)
        assert lic.license_hash.value not in hashes

    def test_traceability_lookup(self, identity):
        # A leaked (consumer_id, content_id) pair locates its license.
        accounts = [make_account(identity, f"consumer-{i:02d}", generate_keypair())
                    for i in range(10)]
        licenses = [sample_license(a) for a in accounts]
        target = accounts[7]
        fp = consumer_fingerprint(target.id, digest(b"some content"))
        matches = [l for l in licenses if l.consumer_fingerprint == fp]
        assert matches == [licenses[7]]


def deny_reason(lic, action, now):
    """The reason check_rights gives for refusing ACTION at NOW."""
    with pytest.raises(RightsDenied) as err:
        check_rights(lic, action, now)
    return err.value.reason


class TestCheckRights:
    def test_allow_within_window(self, account):
        lic = sample_license(account, max_uses=2)
        assert check_rights(lic, ACTION_STREAM, NOW) == lic.replace(uses_consumed=1)

    def test_uses_exhausted_on_third_call(self, account):
        lic = sample_license(account, max_uses=2)
        lic = check_rights(lic, ACTION_STREAM, NOW)
        lic = check_rights(lic, ACTION_STREAM, NOW)
        assert deny_reason(lic, ACTION_STREAM, NOW) == "UsesExhausted"

    def test_denials_do_not_consume(self, account):
        lic = sample_license(account, max_uses=1)
        for _ in range(5):
            with pytest.raises(RightsDenied):
                check_rights(lic, ACTION_RELICENSE, NOW)
        assert lic.uses_consumed == 0
        check_rights(lic, ACTION_STREAM, NOW)

    def test_license_given_is_left_unchanged(self, account):
        lic = sample_license(account, max_uses=1)
        spent = check_rights(lic, ACTION_STREAM, NOW)
        assert deny_reason(spent, ACTION_STREAM, NOW) == "UsesExhausted"
        assert (lic.uses_consumed, spent.uses_consumed) == (0, 1)
        assert spent == lic.replace(uses_consumed=1)

    def test_expired(self, account):
        lic = sample_license(account)
        assert deny_reason(lic, ACTION_STREAM, NOW + 101) == "Expired"

    def test_not_yet_valid(self, account):
        lic = sample_license(account)
        assert deny_reason(lic, ACTION_STREAM, NOW - 101) == "NotYetValid"

    def test_boundaries_inclusive(self, account):
        lic = sample_license(account)
        check_rights(lic, ACTION_STREAM, NOW - 100)
        check_rights(lic, ACTION_STREAM, NOW + 100)

    def test_action_forbidden_wins_over_expiry(self, account):
        # Documented precedence: forbidden action reported before window.
        lic = sample_license(account)
        assert deny_reason(lic, ACTION_RELICENSE, NOW + 5000) == "ActionForbidden"

    def test_zero_use_license_always_exhausted(self, account):
        lic = sample_license(account, max_uses=0)
        assert deny_reason(lic, ACTION_STREAM, NOW) == "UsesExhausted"

    def test_monotonic_once_exhausted(self, account):
        lic = sample_license(account, max_uses=3)
        for _ in range(3):
            lic = check_rights(lic, ACTION_STREAM, NOW)
        for later in range(0, 200, 17):
            with pytest.raises(RightsDenied):
                check_rights(lic, ACTION_STREAM, NOW + later)

    def test_redeem_denied_without_key_release(self, account):
        lic = sample_license(account)
        with pytest.raises(RightsDenied) as err:
            redeem_license(CONSUMER.private_key, lic, ACTION_STREAM, NOW + 5000)
        assert "Expired" in str(err.value)

    def test_redeem_tampered_envelope(self, account):
        lic = sample_license(account)
        bad_env = lic.enveloped_content_key.replace(
            ciphertext=bytes(len(lic.enveloped_content_key.ciphertext)))
        bad = lic.replace(enveloped_content_key=bad_env)
        with pytest.raises(OpenFailed):
            redeem_license(CONSUMER.private_key, bad, ACTION_STREAM, NOW)


class TestLicenseSerialization:
    def test_canonical_round_trip(self, account):
        lic = sample_license(account, max_uses=9)
        assert License.from_canonical_bytes(lic.canonical_bytes()) == lic

    def test_json_round_trip_keeps_uses(self, account, tmp_path):
        # The persisted license file is JSON: the canonical record plus the
        # use counter, which the canonical bytes do not carry.
        lic = check_rights(sample_license(account, max_uses=5), ACTION_STREAM, NOW)
        state = StateDirectory(tmp_path / "state")
        state.initialize(Config())
        state.save_license(lic)
        [path] = state.licenses_dir.glob(f"*-{lic.license_id.hex()}.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload == {"license": lic.canonical_bytes().hex(),
                           "uses_consumed": 1}
        again = state.load_license(lic.license_id)
        assert again == lic
        assert again.uses_consumed == 1

    def test_tampered_hash_rejected(self, account):
        lic = sample_license(account).replace(license_hash=digest(b"forged"))
        with pytest.raises(ValueError):
            License.from_canonical_bytes(lic.canonical_bytes())

    def test_tampered_consumer_rejected(self, account):
        lic = sample_license(account).replace(consumer_id="mallory-rival")
        lic = lic.replace(license_hash=lic.compute_hash())
        # Hash recomputes, but the fingerprint no longer matches the id.
        with pytest.raises(ValueError):
            License.from_canonical_bytes(lic.canonical_bytes())


class TestSecretBlock:
    def _build(self, identity, account, clock):
        identity_token = SessionToken(token=b"\xaa" * 32, account_id=account.id,
                                      expires_at=NOW + 3600)
        lic = sample_license(account)
        link = SkyLink.from_digest(digest(b"whatever"))
        return build_secret_block(
            lic, identity_token, "studio-prime", digest(b"tip"),
            "Example Feature", link, account.public_key, NOW), lic, identity_token, link

    def test_consumer_opens_and_hash_recomputes(self, identity, account, clock):
        (block, sealed), lic, token, link = self._build(identity, account, clock)
        opened = SecretBlock.from_bytes(
            open_envelope(CONSUMER.private_key, sealed))
        assert opened == block
        assert opened.compute_hash() == opened.block_hash

    def test_other_keyholder_cannot_open(self, identity, account, clock):
        (_, sealed), *_ = self._build(identity, account, clock)
        with pytest.raises(OpenFailed):
            open_envelope(PROVIDER.private_key, sealed)

    def test_fields_bind_expected_values(self, identity, account, clock):
        (block, _), lic, token, link = self._build(identity, account, clock)
        assert block.prev_public_hash == digest(b"tip")
        assert block.license_info == lic.license_hash
        assert block.provider_info == "studio-prime"
        assert block.auth_info == digest(token.token + account.id.encode())
        info = open_envelope(CONSUMER.private_key, block.encrypted_content_info)
        assert info == content_info_bytes("Example Feature", link)

    def test_tampered_bytes_rejected(self, identity, account, clock):
        (block, _), *_ = self._build(identity, account, clock)
        blob = bytearray(block.to_bytes())
        blob[10] ^= 0x01
        with pytest.raises(ValueError):
            SecretBlock.from_bytes(bytes(blob))


class TestExecutePurchase:
    @pytest.fixture
    def world(self, identity, account, clock, rng):
        network = StorageNetwork.with_hosts(5)
        data = rng.randbytes(50_000)
        link, _ = upload(data, network, PROVIDER, chunk_size=4096)
        chain = Chain(difficulty_bits=8, clock=clock)
        identity.register("studio-prime", "studio passphrase", PROVIDER.public_key)
        challenge = identity.begin_auth(account.id)
        from skyvault.identity import solve_challenge
        from skyvault.crypto import derive_credential
        verifier = derive_credential(account.id, "correct horse battery").verifier
        response = solve_challenge(challenge.sealed_nonce, CONSUMER.private_key,
                                   verifier)
        token = identity.complete_auth(challenge.challenge_id, response)
        return dict(network=network, chain=chain, link=link, token=token,
                    data=data)

    def _purchase(self, identity, account, world, **overrides):
        kwargs = dict(
            identity=identity,
            session_token=world["token"],
            content_id=world["link"].digest(),
            content_title="Example Feature",
            provider=PROVIDER,
            provider_name="studio-prime",
            consumer_account=account,
            network=world["network"],
            chain=world["chain"],
            rules=window(max_uses=3),
            rights=Rights.default(),
            now=NOW,
        )
        kwargs.update(overrides)
        return execute_purchase(**kwargs)

    def test_happy_path_commits_secret(self, identity, account, world):
        result = self._purchase(identity, account, world)
        chain = world["chain"]
        assert chain.pending and chain.pending[0].tx_id == result.tx_id
        chain.mine()
        opened = open_envelope(CONSUMER.private_key, result.sealed_secret_block)
        assert confirm_secret(chain, result.tx_id, opened)
        assert not confirm_secret(chain, result.tx_id, opened + b"x")

    def test_license_unlocks_the_upload(self, identity, account, world):
        from skyvault.storage import download_with_key
        result = self._purchase(identity, account, world)
        _, key = redeem_license(CONSUMER.private_key, result.license,
                                ACTION_DOWNLOAD, NOW)
        assert download_with_key(world["link"], world["network"], key) == world["data"]

    def test_expired_session_rejected(self, identity, account, world, clock):
        clock.advance(4000)
        with pytest.raises(NotAuthenticated):
            self._purchase(identity, account, world, now=NOW + 4000)
        assert world["chain"].pending == []

    def test_foreign_session_rejected(self, identity, account, world):
        stranger = make_account(identity, "stranger-keys", generate_keypair())
        with pytest.raises(NotAuthenticated):
            self._purchase(identity, stranger, world)

    def test_unknown_content_rejected(self, identity, account, world):
        with pytest.raises(UnknownContent):
            self._purchase(identity, account, world,
                           content_id=digest(b"not uploaded"))
        assert world["chain"].pending == []

    def test_ledger_rejection_propagates(self, identity, account, world):
        # Stale purchase time: the chain refuses, nothing persists.
        with pytest.raises(LedgerRejected):
            self._purchase(identity, account, world, now=NOW - 10_000)
        assert world["chain"].pending == []

    def test_fault_in_submit_is_not_a_ledger_rejection(self, identity, account, world,
                                                        monkeypatch):
        # Only the chain's refusals become LedgerRejected; a fault stays itself.
        def broken_submit(chain, tx, provider_public):
            raise RuntimeError("fault in submit")
        monkeypatch.setattr(Chain, "submit", broken_submit)
        with pytest.raises(RuntimeError, match="fault in submit"):
            self._purchase(identity, account, world)

    def test_tx_carries_only_fingerprints(self, identity, account, world):
        result = self._purchase(identity, account, world)
        body = world["chain"].pending[-1].to_bytes()
        assert account.id.encode() not in body
        assert account.public_key not in body
        assert b"Example Feature" not in body


class TestRuleEvaluatorOracle:
    def test_agrees_with_bruteforce_replay(self, account, rng):
        # Independent oracle: replay each call sequence against a
        # plain-python evaluator with the same documented precedence.
        def oracle(rules, actions_allowed, calls):
            used = 0
            out = []
            for action, now in calls:
                if action not in actions_allowed:
                    out.append("ActionForbidden")
                elif now < rules.not_before:
                    out.append("NotYetValid")
                elif now > rules.not_after:
                    out.append("Expired")
                elif rules.max_uses is not None and used >= rules.max_uses:
                    out.append("UsesExhausted")
                else:
                    used += 1
                    out.append(None)
            return out

        action_pool = sorted(ALL := {ACTION_STREAM, ACTION_DOWNLOAD, ACTION_RELICENSE})
        total_calls = 0
        while total_calls < 10_000:
            nb = NOW + rng.randint(-50, 50)
            na = nb + rng.randint(0, 100)
            rules = KeyRules(not_before=nb, not_after=na,
                             max_uses=rng.choice([None, 0, 1, 2, 3, 10]))
            allowed = frozenset(rng.sample(action_pool, rng.randint(1, 3)))
            lic = issue_license(PROVIDER, account, digest(b"c"), b"\x01" * 32,
                                rules, Rights(allowed), now=NOW)
            calls = [(rng.choice(action_pool), NOW + rng.randint(-80, 160))
                     for _ in range(rng.randint(1, 25))]
            expected = oracle(rules, allowed, calls)
            got = []
            for action, now in calls:
                try:
                    lic = check_rights(lic, action, now)
                    got.append(None)
                except RightsDenied as exc:
                    got.append(exc.reason)
            assert got == expected
            total_calls += len(calls)
