"""State directory: config parsing and cold-restart persistence."""

import pytest

from skyvault.crypto import derive_credential, digest, generate_keypair
from skyvault.errors import (
    AlreadyPublished,
    BadConfig,
    BadIdentifier,
    Expired,
    StateCorrupt,
    StateMissing,
    UnknownLicense,
)
from skyvault.identity import IdentityService, solve_challenge
from skyvault.ledger import append_block
from skyvault.licensing import KeyRules, Rights, check_rights, issue_license
from skyvault.state import Config, StateDirectory, load_world, save_world
from skyvault.storage import download, fail_host, upload


class TestConfig:
    def test_defaults_round_trip(self):
        config = Config()
        assert Config.from_text(config.to_text()) == config
        assert config.replication_factor == 3
        assert config.chunk_size == 262144
        assert config.pow_difficulty == 8
        assert config.host_count == 5

    def test_overrides_and_comments(self):
        text = "# tuned for tests\nchunk_size=1024\n\nhost_count=7\n"
        config = Config.from_text(text)
        assert config.chunk_size == 1024
        assert config.host_count == 7
        assert config.session_ttl == 3600

    def test_unknown_key_rejected(self):
        with pytest.raises(BadConfig):
            Config.from_text("warp_speed=9\n")

    def test_non_integer_rejected(self):
        with pytest.raises(BadConfig):
            Config.from_text("chunk_size=lots\n")

    @pytest.mark.parametrize("value", ["+1_024", "1_024", "\u0661\u0660\u0662\u0664",
                                       "\uff11\uff10\uff12\uff14"])
    def test_not_ascii_decimal_rejected(self, value):
        # int() alone read "+1_024" and the Arabic-Indic and full-width
        # digits of 1024 as 1024.
        with pytest.raises(BadConfig, match="line 2: chunk_size must be an integer"):
            Config.from_text(f"# tuned\nchunk_size={value}\n")

    def test_setting_given_twice_rejected(self):
        # The last one won: this loaded as 2048.
        with pytest.raises(BadConfig, match="line 3: chunk_size is set twice"):
            Config.from_text("chunk_size=1024\nhost_count=7\nchunk_size=2048\n")

    def test_nonpositive_rejected(self):
        with pytest.raises(BadConfig):
            Config(chunk_size=0)

    def test_replication_bounded_by_hosts(self):
        with pytest.raises(BadConfig):
            Config(replication_factor=6, host_count=5)


@pytest.fixture
def state(tmp_path):
    s = StateDirectory(tmp_path / "state")
    s.initialize(Config(chunk_size=1024))
    return s


class TestStateDirectory:
    def test_missing_state_raises(self, tmp_path):
        with pytest.raises(StateMissing):
            StateDirectory(tmp_path / "nowhere").load_config()

    def test_identity_round_trip(self, state):
        world = load_world(state.root)
        keypair = generate_keypair()
        world.identity.register("alice-consumer", "sturdy password",
                                keypair.public_key)
        challenge = world.identity.begin_auth("alice-consumer")
        verifier = derive_credential("alice-consumer", "sturdy password").verifier
        response = solve_challenge(challenge.sealed_nonce, keypair.private_key,
                                   verifier)
        session = world.identity.complete_auth(challenge.challenge_id, response)
        save_world(world)

        reloaded = load_world(state.root)
        assert reloaded.identity.get_account("alice-consumer").public_key == \
            keypair.public_key
        assert reloaded.identity.validate_session(session.token) == "alice-consumer"

    def test_tokens_outlive_a_reload(self, state, clock):
        world = load_world(state.root, clock=clock)

        def login(id):
            keypair = generate_keypair()
            world.identity.register(id, "sturdy password", keypair.public_key)
            challenge = world.identity.begin_auth(id)
            response = solve_challenge(
                challenge.sealed_nonce, keypair.private_key,
                derive_credential(id, "sturdy password").verifier)
            return world.identity.complete_auth(challenge.challenge_id, response).token

        alice = login("alice-consumer")
        clock.advance(3000)
        bob = login("bob-consumer")
        clock.advance(700)  # past alice's 3600-s session, inside bob's
        save_world(world)

        assert not list(state.accounts_dir.glob("sessions*"))
        reloaded = load_world(state.root, clock=clock)
        assert reloaded.identity.validate_session(bob) == "bob-consumer"
        with pytest.raises(Expired):
            reloaded.identity.validate_session(alice)

    @pytest.mark.parametrize("size", [0, 31, 33])
    def test_session_key_must_be_32_bytes(self, state, size):
        assert len(state.session_key_path.read_bytes()) == 32
        state.session_key_path.write_bytes(bytes(size))
        with pytest.raises(StateCorrupt, match="session.key"):
            load_world(state.root)

    def test_escaping_account_id_never_saved(self, state, tmp_path):
        # accounts/<id>.json: "../../escaped" would land two levels above
        # accounts/, and vanish from the next load.
        world = load_world(state.root)
        with pytest.raises(BadIdentifier):
            world.identity.register("../../escaped", "sturdy password",
                                    generate_keypair().public_key)
        save_world(world)
        assert not list(tmp_path.rglob("escaped*"))
        assert load_world(state.root).identity.accounts() == []

    def test_account_saved_after_load_is_found(self, state):
        # A loaded world finds an account another one saved since, by its
        # one file; no file, or an id that names none, finds nothing.
        world = load_world(state.root)
        other = load_world(state.root)
        keypair = generate_keypair()
        state.save_keypair("alice-consumer", keypair)
        state.save_account(other.identity.register(
            "alice-consumer", "sturdy password", keypair.public_key))
        assert world.identity.begin_auth("alice-consumer").account_id == "alice-consumer"
        assert state.find_account("alice-consumer") == other.identity.get_account(
            "alice-consumer")
        for id in ("bob-consumer", "../keys/alice-consumer"):
            assert state.find_account(id) is None

    def test_network_round_trip(self, state, rng):
        world = load_world(state.root)
        uploader = generate_keypair()
        data = rng.randbytes(5000)
        link, _ = upload(data, world.network, uploader, chunk_size=1024)
        fail_host(world.network, "h3")
        save_world(world)

        reloaded = load_world(state.root)
        assert not reloaded.network.host("h3").alive
        assert download(link, reloaded.network, uploader.private_key) == data

    def test_chain_round_trip(self, state, clock, rng):
        from test_ledger import mined_chain
        chain = mined_chain(clock, n_blocks=3)
        for block in chain.blocks:
            append_block(state.chain_path, block)
        reloaded = load_world(state.root, clock=clock)
        assert reloaded.chain.blocks == chain.blocks
        assert reloaded.chain.verify() is None

    def test_license_round_trip(self, state):
        consumer = generate_keypair()
        identity = IdentityService()
        account = identity.register("bob-consumer", "password123",
                                    consumer.public_key)
        lic = issue_license(generate_keypair(), account, digest(b"content"),
                            b"\x09" * 32, KeyRules(0, 10**10, 3),
                            Rights.default(), now=5)
        lic = check_rights(lic, "stream", now=6)
        state.save_license(lic)
        assert state.load_license(lic.license_id) == lic
        assert state.load_license(lic.license_id).uses_consumed == 1
        assert state.load_licenses(lic.consumer_id, lic.content_id) == [lic]
        with pytest.raises(UnknownLicense):
            state.load_license(b"\x00" * 16)

    def test_licenses_read_by_consumer_and_title(self, state):
        identity = IdentityService()
        provider = generate_keypair()
        alice = identity.register("alice-consumer", "password123",
                                  generate_keypair().public_key)
        bob = identity.register("bob-consumer", "password123",
                                generate_keypair().public_key)
        film, show = digest(b"film"), digest(b"show")

        def issue(account, content_id, now):
            lic = issue_license(provider, account, content_id, b"\x09" * 32,
                                KeyRules(0, 10**10, None), Rights.default(), now=now)
            state.save_license(lic)
            return lic

        alice_film = [issue(alice, film, 1), issue(alice, film, 2)]
        alice_show = issue(alice, show, 3)
        bob_film = issue(bob, film, 4)
        assert sorted(state.load_licenses("alice-consumer", film),
                      key=lambda lic: lic.issued_at) == alice_film
        assert state.load_licenses("alice-consumer", show) == [alice_show]
        assert state.load_licenses("bob-consumer", film) == [bob_film]
        assert state.load_licenses("bob-consumer", show) == []
        for lic in alice_film + [alice_show, bob_film]:
            name = f"{lic.consumer_fingerprint.hex}-{lic.license_id.hex()}.json"
            assert (state.licenses_dir / name).is_file()
            assert state.load_license(lic.license_id) == lic

    def test_license_filed_under_another_consumer_refused(self, state):
        identity = IdentityService()
        alice = identity.register("alice-consumer", "password123",
                                  generate_keypair().public_key)
        lic = issue_license(generate_keypair(), alice, digest(b"film"),
                            b"\x09" * 32, KeyRules(0, 10**10, None),
                            Rights.default(), now=1)
        state.save_license(lic)
        [path] = state.licenses_dir.iterdir()
        bob_prefix = digest(b"bob-consumer" + digest(b"film").value).hex
        path.rename(path.with_name(f"{bob_prefix}-{lic.license_id.hex()}.json"))
        with pytest.raises(StateCorrupt, match="does not match its record"):
            state.load_licenses("bob-consumer", digest(b"film"))

    def test_secret_round_trip(self, state):
        state.save_secret("ab" * 32, b"sealed bytes here")
        assert state.load_secret("ab" * 32) == b"sealed bytes here"

    def test_catalog_and_keystore(self, state):
        from skyvault.storage import SkyLink
        keypair = generate_keypair()
        state.save_keypair("studio-prime", keypair)
        assert state.load_keypair("studio-prime") == keypair
        link = SkyLink.from_digest(digest(b"x"))
        state.add_catalog_entry("Example Feature", link, "studio-prime")
        entry = state.find_catalog_entry(link.text)
        assert entry["title"] == "Example Feature"
        assert entry["provider_id"] == "studio-prime"

    def test_catalog_lists_a_skylink_once(self, state):
        from skyvault.storage import SkyLink
        link = SkyLink.from_digest(digest(b"x"))
        state.add_catalog_entry("Example Feature", link, "studio-prime")
        catalog = state.catalog_path.read_bytes()
        with pytest.raises(AlreadyPublished):
            state.add_catalog_entry("Knock-off", link, "bob-viewer")
        assert state.catalog_path.read_bytes() == catalog
        assert state.find_catalog_entry(link.text)["provider_id"] == "studio-prime"

    @pytest.mark.parametrize("bad_id", ["../accounts/alice-consumer"])
    def test_keystore_refuses_unsafe_ids(self, state, bad_id):
        with pytest.raises(BadIdentifier):
            state.save_keypair(bad_id, generate_keypair())
        with pytest.raises(BadIdentifier):
            state.load_keypair(bad_id)
        assert not list(state.keys_dir.iterdir())

    def test_login_round_trip(self, state):
        from skyvault.identity import SessionToken
        session = SessionToken(token=b"\x11" * 32, account_id="alice-consumer",
                               expires_at=99)
        state.save_login(session)
        assert state.load_login() == session
