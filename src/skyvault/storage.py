"""Decentralized storage simulator: chunk, encrypt, replicate, address by skylink.

Files are split into fixed-size chunks, each encrypted with a per-file
key and stored on R distinct live hosts (round-robin from chunk index
mod live-host count). ``build_manifest`` alone turns a file into
chunks, a manifest and a skylink: ``upload`` is built on it and places
the chunks, and ``verify_skylink`` rebuilds it to compare. Hosts only
ever hold ciphertext fragments keyed by their digest. The file key is
derived deterministically from the uploader's private key and the file
digest, so the same uploader re-uploading the same bytes lands on the
same skylink; the key also travels inside the manifest sealed to the
uploader.

A skylink is ``sia://`` plus the unpadded base64url digest of the
manifest core. Canonical byte layouts (see :mod:`skyvault.wire` for the
field framing; also documented in the README):

* manifest core (skylink input): ``file_digest, u64(file_size),
  u64(chunk_size), u64(n_chunks), ciphertext_digest...`` -- host
  placement and the sealed file key are deliberately excluded so the
  address depends only on content, chunk size, and uploader key;
* chunk record: ``u64(index), ciphertext_digest, u64(n_hosts),
  host_id...``;
* full manifest file: ``file_digest, u64(file_size), u64(chunk_size),
  u64(n_chunks), chunk_record..., sealed_file_key``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .crypto import Digest, Envelope, KeyPair, digest, open_envelope, seal, sym_decrypt, sym_encrypt
from .errors import (
    AllReplicasDown,
    AuthFailed,
    BadChunkSize,
    EmptyFile,
    HostDown,
    InsufficientHosts,
    IntegrityFailure,
    KeyAccessDenied,
    OpenFailed,
    UnknownHost,
    UnknownSkylink,
)
from .wire import b64u, b64u_decode, pack_fields, read_u64, u64, unpack_fields

DEFAULT_CHUNK_SIZE = 262144
DEFAULT_REPLICATION = 3
SKYLINK_PREFIX = "sia://"

_CHUNK_NONCE_SIZE = 12


@dataclass(frozen=True)
class ChunkRecord:
    """Manifest entry: where one chunk's ciphertext lives."""

    index: int
    ciphertext_digest: Digest
    host_ids: tuple[str, ...]

    def to_bytes(self) -> bytes:
        return pack_fields([u64(self.index), self.ciphertext_digest.value,
                            u64(len(self.host_ids))]
                           + [host_id.encode("utf-8") for host_id in self.host_ids])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ChunkRecord":
        parts = unpack_fields(data)
        if len(parts) < 3:
            raise ValueError("chunk record too short")
        n_hosts = read_u64(parts[2])
        if len(parts) != 3 + n_hosts:
            raise ValueError("chunk record host count mismatch")
        return cls(read_u64(parts[0]), Digest(parts[1]),
                   tuple(part.decode("utf-8") for part in parts[3:]))


@dataclass(frozen=True)
class FileManifest:
    file_digest: Digest
    file_size: int
    chunk_size: int
    chunk_records: tuple[ChunkRecord, ...]
    encrypted_file_key: Envelope

    def header_fields(self) -> list[bytes]:
        """The fields both the core and the full manifest open with."""
        return [
            self.file_digest.value,
            u64(self.file_size),
            u64(self.chunk_size),
            u64(len(self.chunk_records)),
        ]

    def core_bytes(self) -> bytes:
        """Serialization the skylink digest is computed over."""
        return pack_fields(self.header_fields() + [
            record.ciphertext_digest.value for record in self.chunk_records])

    def to_bytes(self) -> bytes:
        return pack_fields(self.header_fields()
                           + [record.to_bytes() for record in self.chunk_records]
                           + [self.encrypted_file_key.to_bytes()])

    @classmethod
    def from_bytes(cls, data: bytes) -> "FileManifest":
        fields = unpack_fields(data)
        if len(fields) < 5:
            raise ValueError("manifest record too short")
        file_digest = Digest(fields[0])
        file_size = read_u64(fields[1])
        chunk_size = read_u64(fields[2])
        n_chunks = read_u64(fields[3])
        if len(fields) != 4 + n_chunks + 1:
            raise ValueError("manifest chunk count mismatch")
        records = tuple(ChunkRecord.from_bytes(blob) for blob in fields[4:4 + n_chunks])
        envelope = Envelope.from_bytes(fields[-1])
        return cls(file_digest, file_size, chunk_size, records, envelope)


@dataclass(frozen=True)
class SkyLink:
    """Immutable content address: ``sia://`` + base64url manifest-core digest."""

    text: str

    def digest(self) -> Digest:
        """The manifest-core digest; a malformed link is ``UnknownSkylink``."""
        if not self.text.startswith(SKYLINK_PREFIX):
            raise UnknownSkylink(f"malformed skylink: must start with {SKYLINK_PREFIX!r}")
        try:
            return Digest(b64u_decode(self.text[len(SKYLINK_PREFIX):]))
        except ValueError as exc:
            raise UnknownSkylink(f"malformed skylink: {exc}") from None

    @classmethod
    def from_digest(cls, value: Digest) -> "SkyLink":
        return cls(text=SKYLINK_PREFIX + b64u(value.value))


class Host:
    """Simulated storage host; stores only ciphertext fragments."""

    def __init__(self, host_id: str):
        self.host_id = host_id
        self.alive = True
        self._fragments: dict[bytes, bytes] = {}

    def store(self, ciphertext_digest: Digest, ciphertext: bytes):
        if not self.alive:
            raise HostDown(f"host {self.host_id} is down")
        self._fragments[ciphertext_digest.value] = ciphertext

    def fetch(self, ciphertext_digest: Digest) -> bytes | None:
        """Return the fragment, or None if this host never stored it."""
        if not self.alive:
            raise HostDown(f"host {self.host_id} is down")
        return self._fragments.get(ciphertext_digest.value)

    def fragments(self) -> dict[bytes, bytes]:
        return dict(self._fragments)

    def fragment_count(self) -> int:
        return len(self._fragments)


class StorageNetwork:
    """Host roster plus the manifest registry, keyed by skylink digest."""

    def __init__(self, hosts: list[Host],
                 replication_factor: int = DEFAULT_REPLICATION):
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        self.hosts = hosts
        self.replication_factor = replication_factor
        self._manifests: dict[bytes, FileManifest] = {}

    @classmethod
    def with_hosts(cls, count: int, replication_factor: int = DEFAULT_REPLICATION) -> "StorageNetwork":
        return cls(hosts=[Host(f"h{i}") for i in range(count)],
                   replication_factor=replication_factor)

    def host(self, host_id: str) -> Host:
        for host in self.hosts:
            if host.host_id == host_id:
                return host
        raise UnknownHost(f"no such host: {host_id}")

    def live_hosts(self) -> list[Host]:
        return [host for host in self.hosts if host.alive]

    def register_manifest(self, manifest: FileManifest):
        self._manifests[digest(manifest.core_bytes()).value] = manifest

    def lookup(self, link: SkyLink) -> FileManifest:
        manifest = self._manifests.get(link.digest().value)
        if manifest is None:
            raise UnknownSkylink(f"no manifest for {link.text}")
        return manifest

    def manifests(self) -> list[FileManifest]:
        return list(self._manifests.values())


def chunk_file(data: bytes, chunk_size: int) -> list[bytes]:
    """Fixed-size split; the last chunk may be short, empty input yields none."""
    if chunk_size < 1:
        raise BadChunkSize(f"chunk size must be >= 1, got {chunk_size}")
    return [data[i:i + chunk_size] for i in range(0, len(data), chunk_size)]


def derive_file_key(uploader_private: bytes, file_digest: Digest) -> bytes:
    """Deterministic per-(uploader, content) key; makes skylinks reproducible."""
    return digest(uploader_private + file_digest.value).value


def chunk_nonce(index: int) -> bytes:
    return index.to_bytes(_CHUNK_NONCE_SIZE, "big")


def build_manifest(data: bytes, uploader: KeyPair,
                   chunk_size: int) -> tuple[SkyLink, FileManifest, list[bytes]]:
    """Chunk and encrypt without touching any host.

    Returns the skylink, a manifest whose records name no hosts yet, and
    each chunk's ciphertext in record order. The skylink covers only the
    manifest core, so placing the chunks later leaves it valid.
    """
    file_digest = digest(data)
    file_key = derive_file_key(uploader.private_key, file_digest)
    ciphertexts = [sym_encrypt(file_key, chunk_nonce(i), plain)
                   for i, plain in enumerate(chunk_file(data, chunk_size))]
    manifest = FileManifest(
        file_digest=file_digest,
        file_size=len(data),
        chunk_size=chunk_size,
        chunk_records=tuple(ChunkRecord(i, digest(ciphertext), ())
                            for i, ciphertext in enumerate(ciphertexts)),
        encrypted_file_key=seal(uploader.public_key, file_key),
    )
    return SkyLink.from_digest(digest(manifest.core_bytes())), manifest, ciphertexts


def upload(data: bytes, network: StorageNetwork, uploader: KeyPair,
           chunk_size: int = DEFAULT_CHUNK_SIZE) -> tuple[SkyLink, FileManifest]:
    """Encrypt, replicate across R distinct live hosts, register the manifest."""
    if not data:
        raise EmptyFile("refusing to upload an empty file")
    live = network.live_hosts()
    replication = network.replication_factor
    if len(live) < replication:
        raise InsufficientHosts(
            f"need {replication} live hosts, have {len(live)}")

    link, manifest, ciphertexts = build_manifest(data, uploader, chunk_size)
    records = []
    for record, ciphertext in zip(manifest.chunk_records, ciphertexts):
        replicas = [live[(record.index + offset) % len(live)] for offset in range(replication)]
        for host in replicas:
            host.store(record.ciphertext_digest, ciphertext)
        records.append(dataclasses.replace(
            record, host_ids=tuple(host.host_id for host in replicas)))
    manifest = dataclasses.replace(manifest, chunk_records=tuple(records))
    network.register_manifest(manifest)
    return link, manifest


def download(link: SkyLink, network: StorageNetwork, requester_private: bytes) -> bytes:
    """Fetch, verify, and decrypt a file; the requester must own the file key."""
    manifest = network.lookup(link)
    try:
        file_key = open_envelope(requester_private, manifest.encrypted_file_key)
    except OpenFailed:
        raise KeyAccessDenied("requester's key cannot open the file key") from None
    return download_with_key(link, network, file_key)


def download_with_key(link: SkyLink, network: StorageNetwork, file_key: bytes) -> bytes:
    """Download with an explicitly supplied file key (e.g. a redeemed license key).

    Each chunk is fetched from any live replica whose fragment passes the
    digest check; corrupt or unreachable replicas fail over to the next.
    """
    manifest = network.lookup(link)
    parts = []
    for record in manifest.chunk_records:
        parts.append(_fetch_chunk(network, record, file_key))
    blob = b"".join(parts)
    if digest(blob) != manifest.file_digest:
        raise IntegrityFailure("reassembled file digest mismatch")
    return blob


def _fetch_chunk(network: StorageNetwork, record: ChunkRecord, file_key: bytes) -> bytes:
    corrupt_host: str | None = None
    reachable = 0
    for host_id in record.host_ids:
        try:
            host = network.host(host_id)
        except UnknownHost:
            continue
        try:
            fragment = host.fetch(record.ciphertext_digest)
        except HostDown:
            continue
        if fragment is None:
            continue
        reachable += 1
        if digest(fragment) != record.ciphertext_digest:
            if corrupt_host is None:
                corrupt_host = host_id
            continue
        try:
            return sym_decrypt(file_key, chunk_nonce(record.index), fragment)
        except AuthFailed:
            if corrupt_host is None:
                corrupt_host = host_id
            continue
    if corrupt_host is not None:
        raise IntegrityFailure(
            f"chunk {record.index} corrupt on every reachable replica "
            f"(first offender: {corrupt_host})",
            chunk_index=record.index, host_id=corrupt_host)
    raise AllReplicasDown(
        f"no live replica holds chunk {record.index} "
        f"({reachable} reachable)", chunk_index=record.index)


def verify_skylink(link: SkyLink, data: bytes, uploader: KeyPair,
                   chunk_size: int = DEFAULT_CHUNK_SIZE) -> bool:
    """True iff re-deriving the manifest core over data reproduces the skylink."""
    try:
        built_link, _, _ = build_manifest(data, uploader, chunk_size)
    except BadChunkSize:
        return False
    return built_link == link


def fail_host(network: StorageNetwork, host_id: str):
    network.host(host_id).alive = False


def revive_host(network: StorageNetwork, host_id: str):
    network.host(host_id).alive = True
