"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one
pass/fail line per criterion. Each test also prints an ``ACCEPTANCE #n``
line (visible with ``-rA`` or on failure).
"""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import FakeClock, openssl_aes128_cbc_decrypt

from skyvault.cli import main as cli_main
from skyvault.crypto import Digest, derive_credential, digest, generate_keypair, open_envelope
from skyvault.errors import (
    ChainCorrupt,
    IntegrityFailure,
    ResponseMismatch,
    RightsDenied,
    UnknownChallenge,
)
from skyvault.hls import package, sequence_iv, unpackage, validate_media_playlist
from skyvault.identity import IdentityService, solve_challenge
from skyvault.ledger import Chain, parse_chain, serialize_chain, confirm_secret
from skyvault.licensing import (
    ACTION_DOWNLOAD,
    ACTION_RELICENSE,
    ACTION_STREAM,
    KeyRules,
    Rights,
    SecretBlock,
    check_rights,
    execute_purchase,
    issue_license,
)
from skyvault.storage import (
    StorageNetwork,
    chunk_file,
    download,
    fail_host,
    upload,
    verify_skylink,
)

NOW = 1_700_000_000


def report(n: int, text: str):
    print(f"ACCEPTANCE #{n} PASS: {text}")


def random_size(rng, lo: int, hi: int) -> int:
    # Log-uniform so small and large files are both exercised.
    return max(lo, min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi))))))


def test_criterion_01_round_trip_50_files(rng):
    """50 random files (1 B..4 MiB) upload -> download byte-identically, < 60 s."""
    started = time.monotonic()
    network = StorageNetwork.with_hosts(5, replication_factor=3)
    uploader = generate_keypair()
    sizes = [1, 4 << 20] + [random_size(rng, 1, 4 << 20) for _ in range(48)]
    for size in sizes:
        data = rng.randbytes(size)
        link, _ = upload(data, network, uploader)
        assert download(link, network, uploader.private_key) == data
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"round trips took {elapsed:.1f}s"
    report(1, f"50 files round-tripped in {elapsed:.1f}s")


def test_criterion_02_tamper_detection(rng):
    """100 single-byte edits all flagged; whole-chunk tamper names the chunk."""
    network = StorageNetwork.with_hosts(5, replication_factor=3)
    uploader = generate_keypair()
    data = rng.randbytes(300_000)
    link, manifest = upload(data, network, uploader, chunk_size=16_384)

    for _ in range(100):
        edited = bytearray(data)
        position = rng.randrange(len(edited))
        edited[position] ^= rng.randint(1, 255)
        assert not verify_skylink(link, bytes(edited), uploader,
                                  chunk_size=16_384)

    n_chunks = len(manifest.chunk_records)
    for target in {0, n_chunks // 2, n_chunks - 1}:
        record = manifest.chunk_records[target]
        originals = {}
        for host_id in record.host_ids:
            host = network.host(host_id)
            fragment = host.fetch(record.ciphertext_digest)
            originals[host_id] = fragment
            corrupt = bytearray(fragment)
            corrupt[rng.randrange(len(corrupt))] ^= rng.randint(1, 255)
            host.store(record.ciphertext_digest, bytes(corrupt))
        with pytest.raises(IntegrityFailure) as err:
            download(link, network, uploader.private_key)
        assert err.value.chunk_index == target
        for host_id, fragment in originals.items():
            network.host(host_id).store(record.ciphertext_digest, fragment)
    assert download(link, network, uploader.private_key) == data
    report(2, "100/100 edits flagged; whole-chunk tamper named the chunk")


def test_criterion_03_double_host_failures(rng):
    """All C(5,2)=10 two-host outages leave every file downloadable (R=3)."""
    uploader = generate_keypair()
    files = [rng.randbytes(random_size(rng, 1_000, 120_000)) for _ in range(4)]
    for down_a, down_b in itertools.combinations(range(5), 2):
        network = StorageNetwork.with_hosts(5, replication_factor=3)
        links = [upload(data, network, uploader, chunk_size=8_192)[0]
                 for data in files]
        fail_host(network, f"h{down_a}")
        fail_host(network, f"h{down_b}")
        for link, data in zip(links, files):
            assert download(link, network, uploader.private_key) == data
    report(3, "10/10 double-failure patterns kept all files downloadable")


def test_criterion_04_host_opacity(rng):
    """No stored fragment contains any 32-byte plaintext window."""
    network = StorageNetwork.with_hosts(5, replication_factor=3)
    uploader = generate_keypair()
    files = [rng.randbytes(random_size(rng, 64, 8_192)) for _ in range(20)]
    for data in files:
        upload(data, network, uploader, chunk_size=2_048)

    fragment_windows = set()
    for host in network.hosts:
        for fragment in host.fragments().values():
            for i in range(len(fragment) - 31):
                fragment_windows.add(fragment[i:i + 32])
    hits = 0
    for data in files:
        for i in range(len(data) - 31):
            if data[i:i + 32] in fragment_windows:
                hits += 1
    assert hits == 0
    report(4, f"0 plaintext windows across {len(fragment_windows)} fragment windows")


def test_criterion_05_authentication_soundness(rng):
    """10^3 bad logins rejected; correct ones always pass; replays burn."""
    clock = FakeClock(NOW)
    identity = IdentityService(clock=clock)
    keypair = generate_keypair()
    password = "correct horse battery"
    identity.register("alice-consumer", password, keypair.public_key)
    verifier = derive_credential("alice-consumer", password).verifier

    rejected = 0
    for i in range(1000):
        challenge = identity.begin_auth("alice-consumer")
        if i % 2 == 0:
            # Wrong private key: the sealed nonce cannot be opened, so
            # the attacker can only guess the response.
            response = digest(rng.randbytes(64))
        else:
            wrong_verifier = derive_credential("alice-consumer",
                                               f"wrong password {i}").verifier
            response = solve_challenge(challenge.sealed_nonce,
                                       keypair.private_key, wrong_verifier)
        with pytest.raises(ResponseMismatch):
            identity.complete_auth(challenge.challenge_id, response)
        rejected += 1
    assert rejected == 1000

    succeeded = 0
    for _ in range(100):
        challenge = identity.begin_auth("alice-consumer")
        response = solve_challenge(challenge.sealed_nonce, keypair.private_key,
                                   verifier)
        session = identity.complete_auth(challenge.challenge_id, response)
        assert identity.validate_session(session.token) == "alice-consumer"
        succeeded += 1
        # Replay of a consumed challenge must always fail.
        with pytest.raises(UnknownChallenge):
            identity.complete_auth(challenge.challenge_id, response)
    assert succeeded == 100
    report(5, "1000/1000 bad logins rejected, 100/100 good ones passed, "
              "100/100 replays burned")


def test_criterion_06_exhaustive_chain_bit_flips(clock):
    """Every single-bit corruption of a 5-block chain is detected, < 120 s."""
    from test_ledger import mined_chain
    started = time.monotonic()
    chain = mined_chain(clock, n_blocks=5)
    blob = serialize_chain(chain)
    assert parse_chain(blob, clock=clock).verify() is None

    undetected = []
    for bit in range(len(blob) * 8):
        mutated = bytearray(blob)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            reloaded = parse_chain(bytes(mutated), clock=clock)
        except ChainCorrupt:
            continue
        if reloaded.verify() is None:
            undetected.append(bit)
    elapsed = time.monotonic() - started
    assert not undetected, f"bits not detected: {undetected[:10]}"
    assert elapsed < 120, f"bit sweep took {elapsed:.1f}s"
    report(6, f"{len(blob) * 8} bit flips all detected in {elapsed:.1f}s")


def test_criterion_07_privacy_scan(rng):
    """After 10 purchases: no identity/key/secret bytes on chain or hosts."""
    clock = FakeClock(NOW)
    identity = IdentityService(clock=clock)
    network = StorageNetwork.with_hosts(5, replication_factor=3)
    chain = Chain(difficulty_bits=8, clock=clock)

    provider_kp = generate_keypair()
    identity.register("studio-prime", "provider passphrase", provider_kp.public_key)
    contents = []
    for i in range(3):
        data = rng.randbytes(random_size(rng, 10_000, 80_000))
        link, manifest = upload(data, network, provider_kp, chunk_size=4_096)
        key = open_envelope(provider_kp.private_key, manifest.encrypted_file_key)
        contents.append((f"Feature Number {i}", link, key))

    needles = []  # (label, octets) that must never be public
    secrets_to_confirm = []
    for i in range(10):
        consumer_id = f"consumer-{i:02d}-private"
        kp = generate_keypair()
        password = f"household secret {i}"
        account = identity.register(consumer_id, password, kp.public_key)
        challenge = identity.begin_auth(consumer_id)
        response = solve_challenge(
            challenge.sealed_nonce, kp.private_key,
            derive_credential(consumer_id, password).verifier)
        token = identity.complete_auth(challenge.challenge_id, response)

        title, link, content_key = contents[i % 3]
        result = execute_purchase(
            identity=identity, session_token=token, content_id=link.digest(),
            content_title=title, provider=provider_kp,
            provider_name="studio-prime", consumer_account=account,
            network=network, chain=chain,
            rules=KeyRules(NOW - 10, NOW + 10_000, max_uses=5),
            rights=Rights.default(), now=int(clock()))
        chain.mine()

        opened = open_envelope(kp.private_key, result.sealed_secret_block)
        block = SecretBlock.from_bytes(opened)
        secrets_to_confirm.append((result.tx_id, opened))
        needles += [
            (f"{consumer_id}: id", consumer_id.encode()),
            (f"{consumer_id}: content key", content_key),
            (f"{consumer_id}: session token", token.token),
            (f"{consumer_id}: secret bytes", opened),
            (f"{consumer_id}: secret hash", block.block_hash.value),
            (f"{consumer_id}: auth info", block.auth_info.value),
            (f"{consumer_id}: license hash", block.license_info.value),
            (f"{consumer_id}: content info env",
             block.encrypted_content_info.to_bytes()),
            (f"{consumer_id}: title", title.encode()),
        ]
        # prev_public_hash and the timestamp are public by construction
        # (chain tip and tx time), so they are not scanned for.

    public = [("chain", serialize_chain(chain))]
    for host in network.hosts:
        for fragment_digest, fragment in host.fragments().items():
            public.append((f"{host.host_id}/{fragment_digest.hex()}", fragment))

    hits = [(where, label) for where, blob in public
            for label, needle in needles if needle in blob]
    assert hits == [], f"private bytes leaked: {hits[:5]}"

    assert chain.verify() is None
    for tx_id, opened in secrets_to_confirm:
        assert confirm_secret(chain, tx_id, opened)
        assert not confirm_secret(chain, tx_id,
                                  opened[:-1] + bytes([opened[-1] ^ 1]))
    report(7, f"{len(needles)} private values absent from "
              f"{len(public)} public artifacts; 10/10 secrets confirmed")


def test_criterion_08_license_rule_agreement(rng):
    """check_rights matches a brute-force evaluator on >= 10^4 samples."""
    identity = IdentityService(clock=FakeClock(NOW))
    provider_kp = generate_keypair()
    consumer_kp = generate_keypair()
    account = identity.register("alice-consumer", "sturdy password",
                                consumer_kp.public_key)
    actions = [ACTION_STREAM, ACTION_DOWNLOAD, ACTION_RELICENSE]

    samples = 0
    disagreements = 0
    while samples < 10_000:
        not_before = NOW + rng.randint(-60, 60)
        not_after = not_before + rng.randint(0, 120)
        max_uses = rng.choice([None, 0, 1, 2, 3, 7, 50])
        allowed = frozenset(rng.sample(actions, rng.randint(1, 3)))
        rules = KeyRules(not_before, not_after, max_uses)
        license = issue_license(provider_kp, account, digest(b"content"),
                                b"\x2a" * 32, rules, Rights(allowed), NOW)
        used = 0
        for _ in range(rng.randint(1, 20)):
            action = rng.choice(actions)
            now = NOW + rng.randint(-90, 200)
            # Brute-force replay of the documented precedence.
            if action not in allowed:
                expected = "ActionForbidden"
            elif now < not_before:
                expected = "NotYetValid"
            elif now > not_after:
                expected = "Expired"
            elif max_uses is not None and used >= max_uses:
                expected = "UsesExhausted"
            else:
                expected = "allow"
                used += 1
            try:
                license = check_rights(license, action, now)
                got = "allow"
            except RightsDenied as exc:
                got = exc.reason
            if got != expected:
                disagreements += 1
            samples += 1
    assert disagreements == 0
    report(8, f"{samples} samples, 100% agreement with brute-force evaluator")


def test_criterion_09_hls_round_trip_and_conformance(rng):
    """20 media blobs round-trip; playlists conform; openssl decrypts a segment."""
    for i in range(20):
        media = rng.randbytes(random_size(rng, 1, 2 << 20))
        key = rng.randbytes(16)
        segment_bytes = rng.choice([65_536, 262_144, 1_048_576])
        pkg = package(media, key, segment_bytes=segment_bytes)
        assert unpackage(pkg, key) == media
        parsed = validate_media_playlist(pkg.media_playlist)
        assert [name for _, name in parsed.segments] == \
            [segment.name for segment in pkg.segments]
        # Independent cipher oracle on one segment, IV = sequence number.
        sequence = rng.randrange(len(pkg.segments))
        plain = openssl_aes128_cbc_decrypt(
            key, sequence_iv(sequence), pkg.segments[sequence].ciphertext)
        expected = chunk_file(media, segment_bytes)[sequence]
        assert plain == expected
    report(9, "20/20 packages round-tripped, conformed, and matched openssl")


def test_criterion_10_cold_restart_determinism(tmp_path):
    """A fresh process answers verify-chain 'ok' and re-downloads identically."""
    root = tmp_path / "state"
    runner = CliRunner()
    password = "sturdy password"

    def cli(*args, expect=0):
        result = runner.invoke(cli_main, ["--state", str(root), *args],
                               catch_exceptions=False)
        assert result.exit_code == expect, result.output + str(result.stderr_bytes)
        return result

    cli("init", "--chunk-size", "8192")
    cli("register", "studio-prime", "--password", password)
    cli("register", "alice-consumer", "--password", password)
    cli("login", "studio-prime", "--password", password)
    files = {}
    for i in range(3):
        data = os.urandom(30_000 + i * 17)
        src = tmp_path / f"content{i}.bin"
        src.write_bytes(data)
        out = cli("upload", str(src)).output
        skylink = out.split("Skylink: ")[1].strip()
        files[skylink] = data
        cli("publish", skylink, "--title", f"Feature {i}")
    cli("login", "alice-consumer", "--password", password)
    purchased = list(files)[:2]
    for skylink in purchased:
        cli("buy", skylink, "--max-uses", "5")

    env = dict(os.environ,
               SKYVAULT_STATE=str(root),
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def cold(*args):
        return subprocess.run([sys.executable, "-m", "skyvault", *args],
                              capture_output=True, text=True, env=env)

    verify = cold("verify-chain")
    assert verify.returncode == 0, verify.stderr
    assert verify.stdout.strip() == "ok"

    cold("login", "studio-prime", "--password", password)
    for i, (skylink, data) in enumerate(files.items()):
        out = tmp_path / f"cold-{i}.bin"
        fetched = cold("download", skylink, str(out))
        assert fetched.returncode == 0, fetched.stderr
        assert out.read_bytes() == data
    cold("login", "alice-consumer", "--password", password)
    for i, skylink in enumerate(purchased):
        out = tmp_path / f"cold-play-{i}.bin"
        played = cold("play", skylink, str(out))
        assert played.returncode == 0, played.stderr
        assert out.read_bytes() == files[skylink]
    report(10, "cold process verified the chain and re-downloaded "
               f"{len(files)} files + {len(purchased)} licensed plays")
