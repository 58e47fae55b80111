"""Storage network: chunking, encryption, replication, skylinks, failover."""

import itertools

import pytest

from skyvault.crypto import digest, generate_keypair, open_envelope
from skyvault.errors import (
    AllReplicasDown,
    AuthFailed,
    BadChunkSize,
    EmptyFile,
    InsufficientHosts,
    IntegrityFailure,
    KeyAccessDenied,
    UnknownHost,
    UnknownSkylink,
)
from skyvault.storage import (
    DEFAULT_CHUNK_SIZE,
    FileManifest,
    SkyLink,
    StorageNetwork,
    build_manifest,
    chunk_file,
    chunk_nonce,
    derive_file_key,
    download,
    download_with_key,
    fail_host,
    revive_host,
    upload,
    verify_skylink,
)

# Deterministic uploader for vector-style checks.
SEED = bytes(range(32))


@pytest.fixture
def network():
    return StorageNetwork.with_hosts(5, replication_factor=3)


@pytest.fixture
def uploader():
    return generate_keypair(SEED)


class TestChunking:
    def test_exact_multiple(self):
        data = b"a" * 1024
        chunks = chunk_file(data, 256)
        assert len(chunks) == 4
        assert all(len(c) == 256 for c in chunks)
        assert b"".join(chunks) == data

    def test_short_tail(self):
        chunks = chunk_file(b"x" * 1000, 256)
        assert [len(c) for c in chunks] == [256, 256, 256, 232]

    def test_single_byte_chunks(self):
        assert chunk_file(b"abc", 1) == [b"a", b"b", b"c"]

    def test_chunk_larger_than_file(self):
        assert chunk_file(b"abc", 1 << 20) == [b"abc"]

    def test_empty_input_no_chunks(self):
        assert chunk_file(b"", 256) == []

    def test_bad_chunk_size(self):
        with pytest.raises(BadChunkSize):
            chunk_file(b"abc", 0)


class TestUploadDownload:
    def test_round_trip(self, network, uploader, rng):
        data = rng.randbytes(300_000)
        link, manifest = upload(data, network, uploader)
        assert download(link, network, uploader.private_key) == data

    def test_round_trip_small_chunks(self, network, uploader, rng):
        data = rng.randbytes(5000)
        link, _ = upload(data, network, uploader, chunk_size=512)
        assert download(link, network, uploader.private_key) == data

    def test_one_byte_file(self, network, uploader):
        link, manifest = upload(b"Z", network, uploader)
        assert len(manifest.chunk_records) == 1
        assert download(link, network, uploader.private_key) == b"Z"

    def test_empty_file_rejected(self, network, uploader):
        with pytest.raises(EmptyFile):
            upload(b"", network, uploader)

    def test_replication_factor_honored(self, network, uploader, rng):
        data = rng.randbytes(2000)
        _, manifest = upload(data, network, uploader, chunk_size=512)
        for record in manifest.chunk_records:
            assert len(record.host_ids) == 3
            assert len(set(record.host_ids)) == 3

    def test_insufficient_hosts(self, uploader):
        network = StorageNetwork.with_hosts(2, replication_factor=3)
        with pytest.raises(InsufficientHosts):
            upload(b"data", network, uploader)

    def test_failed_hosts_not_chosen(self, network, uploader, rng):
        fail_host(network, "h0")
        fail_host(network, "h1")
        data = rng.randbytes(4000)
        _, manifest = upload(data, network, uploader, chunk_size=512)
        used = {h for record in manifest.chunk_records for h in record.host_ids}
        assert used == {"h2", "h3", "h4"}

    def test_wrong_private_key_denied(self, network, uploader, rng):
        link, _ = upload(rng.randbytes(100), network, uploader)
        other = generate_keypair()
        with pytest.raises(KeyAccessDenied):
            download(link, network, other.private_key)

    def test_unknown_skylink(self, network):
        bogus = SkyLink.from_digest(digest(b"nothing here"))
        with pytest.raises(UnknownSkylink):
            download(bogus, network, SEED)

    def test_malformed_skylink(self, network):
        with pytest.raises(UnknownSkylink):
            download(SkyLink(text="https://not-a-skylink"), network, SEED)

    def test_download_with_explicit_key(self, network, uploader, rng):
        data = rng.randbytes(10_000)
        link, manifest = upload(data, network, uploader, chunk_size=1024)
        file_key = open_envelope(uploader.private_key, manifest.encrypted_file_key)
        assert download_with_key(link, network, file_key) == data

    def test_wrong_file_key_blames_no_host(self, network, uploader, rng):
        # A fragment that matches its recorded digest is the one uploaded,
        # so a key that fails to open it is wrong; no host is at fault.
        link, _ = upload(rng.randbytes(3000), network, uploader, chunk_size=1024)
        with pytest.raises(AuthFailed) as err:
            download_with_key(link, network, bytes(32))
        assert "host_id" not in err.value.to_json()


class TestSkylinks:
    def test_prefix_and_shape(self, network, uploader):
        link, _ = upload(b"hello world", network, uploader)
        assert link.text.startswith("sia://")
        # 32-byte digest -> 43 base64url chars, no padding.
        assert len(link.text) == len("sia://") + 43
        assert "=" not in link.text

    def test_deterministic_per_uploader_and_content(self, uploader, rng):
        data = rng.randbytes(5000)
        net_a = StorageNetwork.with_hosts(5)
        net_b = StorageNetwork.with_hosts(7)
        link_a, _ = upload(data, net_a, uploader)
        link_b, _ = upload(data, net_b, uploader)
        assert link_a == link_b

    def test_different_content_different_link(self, network, uploader):
        link_a, _ = upload(b"content A", network, uploader)
        link_b, _ = upload(b"content B", network, uploader)
        assert link_a != link_b

    def test_different_uploader_different_link(self, network, rng):
        data = rng.randbytes(500)
        link_a, _ = upload(data, network, generate_keypair())
        link_b, _ = upload(data, network, generate_keypair())
        assert link_a != link_b

    def test_different_chunk_size_different_link(self, network, uploader, rng):
        data = rng.randbytes(5000)
        link_a, _ = upload(data, network, uploader, chunk_size=1024)
        link_b, _ = upload(data, network, uploader, chunk_size=2048)
        assert link_a != link_b

    def test_verify_skylink_accepts_original(self, network, uploader, rng):
        data = rng.randbytes(3000)
        link, _ = upload(data, network, uploader, chunk_size=1024)
        assert verify_skylink(link, data, uploader, chunk_size=1024)

    def test_verify_skylink_rejects_other_data(self, network, uploader, rng):
        data = rng.randbytes(3000)
        link, _ = upload(data, network, uploader, chunk_size=1024)
        tampered = bytearray(data)
        tampered[0] ^= 0x01
        assert not verify_skylink(link, bytes(tampered), uploader, chunk_size=1024)

    def test_verify_skylink_rejects_other_uploader(self, network, uploader, rng):
        data = rng.randbytes(3000)
        link, _ = upload(data, network, uploader)
        assert not verify_skylink(link, data, generate_keypair())

    def test_build_manifest_matches_upload(self, network, uploader, rng):
        # Offline manifest construction yields the same address as a real upload.
        data = rng.randbytes(4000)
        link_up, _ = upload(data, network, uploader, chunk_size=512)
        link_off, _, _ = build_manifest(data, uploader, chunk_size=512)
        assert link_off == link_up


class TestHostOpacity:
    def test_hosts_never_see_plaintext(self, network, uploader, rng):
        # Every stored fragment must differ from every plaintext chunk.
        data = rng.randbytes(8192)
        upload(data, network, uploader, chunk_size=1024)
        plain_chunks = set(chunk_file(data, 1024))
        for host in network.hosts:
            for fragment in host.fragments().values():
                assert fragment not in plain_chunks
                assert data not in fragment

    def test_fragment_keyed_by_digest(self, network, uploader, rng):
        data = rng.randbytes(2048)
        _, manifest = upload(data, network, uploader, chunk_size=1024)
        record = manifest.chunk_records[0]
        host = network.host(record.host_ids[0])
        fragment = host.fetch(record.ciphertext_digest)
        assert digest(fragment) == record.ciphertext_digest


class TestFaultTolerance:
    def test_single_host_failure(self, network, uploader, rng):
        data = rng.randbytes(20_000)
        link, _ = upload(data, network, uploader, chunk_size=1024)
        fail_host(network, "h0")
        assert download(link, network, uploader.private_key) == data

    def test_all_double_failures(self, uploader, rng):
        # R=3 over 5 hosts tolerates any two down: try every pair.
        data = rng.randbytes(10_000)
        for a, b in itertools.combinations(range(5), 2):
            network = StorageNetwork.with_hosts(5, replication_factor=3)
            link, _ = upload(data, network, uploader, chunk_size=1024)
            fail_host(network, f"h{a}")
            fail_host(network, f"h{b}")
            assert download(link, network, uploader.private_key) == data

    def test_triple_failure_loses_some_chunk(self, network, uploader, rng):
        data = rng.randbytes(10_000)
        link, _ = upload(data, network, uploader, chunk_size=1024)
        for host_id in ("h0", "h1", "h2"):
            fail_host(network, host_id)
        with pytest.raises(AllReplicasDown) as err:
            download(link, network, uploader.private_key)
        assert err.value.chunk_index is not None

    def test_revive_restores_service(self, network, uploader, rng):
        data = rng.randbytes(10_000)
        link, _ = upload(data, network, uploader, chunk_size=1024)
        for host_id in ("h0", "h1", "h2"):
            fail_host(network, host_id)
        revive_host(network, "h1")
        assert download(link, network, uploader.private_key) == data

    def test_unknown_host_control(self, network):
        with pytest.raises(UnknownHost):
            fail_host(network, "h99")
        with pytest.raises(UnknownHost):
            revive_host(network, "h99")

    def test_down_hosts_reported_by_liveness(self, network):
        fail_host(network, "h3")
        assert [h.host_id for h in network.live_hosts()] == ["h0", "h1", "h2", "h4"]


class TestTamperDetection:
    def _tamper(self, host, ciphertext_digest, bit):
        fragment = bytearray(host.fetch(ciphertext_digest))
        fragment[bit // 8] ^= 1 << (bit % 8)
        host.store(ciphertext_digest, bytes(fragment))

    def test_single_replica_tamper_heals(self, network, uploader, rng):
        data = rng.randbytes(5000)
        link, manifest = upload(data, network, uploader, chunk_size=1024)
        record = manifest.chunk_records[2]
        self._tamper(network.host(record.host_ids[0]), record.ciphertext_digest, 13)
        assert download(link, network, uploader.private_key) == data

    def test_all_replicas_tampered_detected(self, network, uploader, rng):
        data = rng.randbytes(5000)
        link, manifest = upload(data, network, uploader, chunk_size=1024)
        record = manifest.chunk_records[1]
        for host_id in record.host_ids:
            self._tamper(network.host(host_id), record.ciphertext_digest, 7)
        with pytest.raises(IntegrityFailure) as err:
            download(link, network, uploader.private_key)
        assert err.value.chunk_index == 1
        assert err.value.host_id in record.host_ids

    def test_truncated_fragment_detected(self, network, uploader, rng):
        data = rng.randbytes(3000)
        link, manifest = upload(data, network, uploader, chunk_size=1024)
        record = manifest.chunk_records[0]
        for host_id in record.host_ids:
            host = network.host(host_id)
            fragment = host.fetch(record.ciphertext_digest)
            host.store(record.ciphertext_digest, fragment[:-1])
        with pytest.raises(IntegrityFailure):
            download(link, network, uploader.private_key)

    def test_reassembled_file_mismatch_names_no_chunk(self, network, uploader,
                                                      rng, monkeypatch):
        # Every chunk passes its own check, in the wrong order.
        link, manifest = upload(rng.randbytes(3000), network, uploader, chunk_size=1024)
        reordered = manifest.replace(chunk_records=manifest.chunk_records[::-1])
        monkeypatch.setattr(network, "lookup", lambda _: reordered)
        with pytest.raises(IntegrityFailure) as err:
            download(link, network, uploader.private_key)
        assert err.value.to_json() == {
            "error": "integrity_failure", "message": "reassembled file digest mismatch",
            "chunk_index": None, "host_id": None}


class TestManifestSerialization:
    def test_round_trip(self, network, uploader, rng):
        data = rng.randbytes(9000)
        _, manifest = upload(data, network, uploader, chunk_size=2048)
        again = FileManifest.from_bytes(manifest.to_bytes())
        assert again == manifest

    def test_core_excludes_placement(self, uploader, rng):
        # Same content re-chunked with different rosters: same core bytes.
        data = rng.randbytes(4000)
        net_a = StorageNetwork.with_hosts(3)
        net_b = StorageNetwork.with_hosts(9)
        _, man_a = upload(data, net_a, uploader, chunk_size=512)
        _, man_b = upload(data, net_b, uploader, chunk_size=512)
        assert man_a.chunk_records[2].host_ids != man_b.chunk_records[2].host_ids
        assert man_a.core_bytes() == man_b.core_bytes()

    def test_truncated_bytes_rejected(self, network, uploader, rng):
        _, manifest = upload(rng.randbytes(100), network, uploader)
        blob = manifest.to_bytes()
        with pytest.raises(ValueError):
            FileManifest.from_bytes(blob[:-1])

    def test_derive_file_key_deterministic(self, uploader):
        fd = digest(b"some file")
        key_a = derive_file_key(uploader.private_key, fd)
        key_b = derive_file_key(uploader.private_key, fd)
        assert key_a == key_b
        assert len(key_a) == 32
        assert derive_file_key(b"\x01" * 32, fd) != key_a

    def test_chunk_nonce_is_big_endian_index(self):
        assert chunk_nonce(0) == b"\x00" * 12
        assert chunk_nonce(1) == b"\x00" * 11 + b"\x01"
        assert chunk_nonce(0x0102) == b"\x00" * 10 + b"\x01\x02"
