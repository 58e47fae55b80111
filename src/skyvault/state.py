"""On-disk state: line-based config plus one directory per subsystem.

Layout under the state root::

    config                      key=value lines
    accounts/<id>.json          registered accounts
    accounts/sessions.json      live session tokens
    hosts/roster.json           host ids and liveness
    hosts/<host_id>/<hex>       ciphertext fragments, named by digest
    manifests/<hex>.manifest    canonical manifests, named by skylink digest
    chain.log                   append-only checksummed block records
    licenses/<fingerprint>-<id>.json
                                canonical license record (hex) + use counter
    secrets/<hex>.secret        sealed secret blocks, named by tx id
    catalog.json                published titles -> skylinks
    keys/<id>.json              client-side keypairs
    session.json                the client's current login
    lock                        flock(2) target, see below

Every file is the canonical format of its owning module, so a cold
restart rebuilds identical state. Each kind of file has one writer, in
this module or, for the chain, ``ledger.append_block``, and a command
calls only the writers for what it changed:

    init                        config, hosts/roster.json
    register                    accounts/<id>.json, keys/<id>.json
    login                       accounts/sessions.json, session.json
    upload                      new fragments, then its manifest
    host fail/revive            hosts/roster.json
    publish                     catalog.json
    buy                         chain.log, one license, one secret
    play                        the license it redeemed

Every writer goes through ``_write``, which writes ``.<name>.tmp`` beside
the file and renames it over the file with ``os.replace``: a command
killed mid-write leaves the old file or the new one, and no loader reads
a leftover temporary file. A fragment file is written only when it does
not exist yet, as it is named by the digest of its bytes. The chain file
is only appended to. ``save_world`` is the bulk save for a world built
through the library; no command calls it.

Commands on one state run one at a time: each holds
``StateDirectory.locked`` from before it loads until after it writes.
``serve`` loads only accounts and sessions. It holds the lock only to
load them, to register an account (after restoring those that other
commands saved meanwhile), and at shutdown to merge its sessions with
those on disk and save them, nothing else.

Every loader reads through ``_load``: a missing file is ``StateMissing``
and one that does not decode is ``StateCorrupt``, each naming the file,
so a damaged state ends a command with its JSON error, not a traceback.
Fragments are the exception: their bytes are not decoded, so a fragment
file must only be named by a digest, and a damaged one is found by that
digest when it is fetched.

A license file is named by the record's consumer fingerprint,
digest(consumer id ‖ content id), and its license id, so ``play`` reads
only the caller's licenses for one title. Files under the older
``licenses/<id>.json`` name are not migrated.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Callable, TypeVar

from .crypto import Digest, KeyPair, digest
from .errors import (BadConfig, StateCorrupt, StateMissing, UnknownLicense,
                     UnknownSkylink)
from .hls import DEFAULT_SEGMENT_BYTES
from .identity import (CHALLENGE_TTL_DEFAULT, SESSION_TTL_DEFAULT, Account,
                       IdentityService, SessionToken, check_id)
from .ledger import DEFAULT_DIFFICULTY_BITS, Chain, load_chain
from .licensing import License, consumer_fingerprint
from .storage import (DEFAULT_CHUNK_SIZE, DEFAULT_REPLICATION, FileManifest,
                      Host, SkyLink, StorageNetwork)
from .wire import b64u, b64u_decode

T = TypeVar("T")

CONFIG_FILENAME = "config"
CHAIN_FILENAME = "chain.log"


@dataclass(frozen=True)
class Config:
    replication_factor: int = DEFAULT_REPLICATION
    chunk_size: int = DEFAULT_CHUNK_SIZE
    pow_difficulty: int = DEFAULT_DIFFICULTY_BITS
    challenge_ttl: int = CHALLENGE_TTL_DEFAULT
    session_ttl: int = SESSION_TTL_DEFAULT
    host_count: int = 5
    segment_bytes: int = DEFAULT_SEGMENT_BYTES

    def __post_init__(self):
        for field in dataclass_fields(self):
            if getattr(self, field.name) <= 0:
                raise BadConfig(f"{field.name} must be positive")
        if self.replication_factor > self.host_count:
            raise BadConfig(
                f"replication_factor {self.replication_factor} exceeds "
                f"host_count {self.host_count}")

    def to_text(self) -> str:
        return "".join(f"{field.name}={getattr(self, field.name)}\n"
                       for field in dataclass_fields(self))

    @classmethod
    def from_text(cls, text: str) -> "Config":
        known = {field.name for field in dataclass_fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in known:
                raise BadConfig(f"config line {lineno}: unknown setting {raw!r}")
            try:
                values[key] = int(value)
            except ValueError:
                raise BadConfig(f"config line {lineno}: {key} must be an integer") from None
        return cls(**values)


class StateDirectory:
    """Path schema plus load/save for each artifact kind."""

    def __init__(self, root):
        self.root = Path(root)

    # -- layout -------------------------------------------------------------

    @property
    def config_path(self) -> Path:
        return self.root / CONFIG_FILENAME

    @property
    def chain_path(self) -> Path:
        return self.root / CHAIN_FILENAME

    @property
    def accounts_dir(self) -> Path:
        return self.root / "accounts"

    @property
    def sessions_path(self) -> Path:
        return self.accounts_dir / "sessions.json"

    @property
    def hosts_dir(self) -> Path:
        return self.root / "hosts"

    @property
    def roster_path(self) -> Path:
        return self.hosts_dir / "roster.json"

    @property
    def manifests_dir(self) -> Path:
        return self.root / "manifests"

    @property
    def licenses_dir(self) -> Path:
        return self.root / "licenses"

    @property
    def secrets_dir(self) -> Path:
        return self.root / "secrets"

    @property
    def catalog_path(self) -> Path:
        return self.root / "catalog.json"

    @property
    def keys_dir(self) -> Path:
        return self.root / "keys"

    @property
    def session_path(self) -> Path:
        return self.root / "session.json"

    def initialize(self, config: Config):
        self.root.mkdir(parents=True, exist_ok=True)
        for directory in (self.accounts_dir, self.hosts_dir, self.manifests_dir,
                          self.licenses_dir, self.secrets_dir, self.keys_dir):
            directory.mkdir(exist_ok=True)
        _write(self.config_path, config.to_text().encode("utf-8"))
        if not self.roster_path.is_file():  # a second init keeps the hosts
            self.save_roster(StorageNetwork.with_hosts(config.host_count))

    def require(self):
        if not self.config_path.is_file():
            raise StateMissing(f"no state at {self.root} (run init first)")

    @contextmanager
    def locked(self):
        """Hold an exclusive flock(2) on ``lock`` for the block, across
        processes. Each entry opens the file anew: nested entries deadlock."""
        self.require()
        fd = os.open(self.root / "lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    # -- config ---------------------------------------------------------------

    def load_config(self) -> Config:
        self.require()
        return _load(self.config_path, lambda data: Config.from_text(data.decode("utf-8")))

    # -- identity -------------------------------------------------------------

    def save_account(self, account: Account):
        _write_json(self.accounts_dir / f"{account.id}.json", account.to_json())

    def load_accounts(self) -> list[Account]:
        accounts = []
        for path in sorted(self.accounts_dir.glob("*.json")):
            if path.name == "sessions.json":
                continue
            accounts.append(_load(path, lambda data: Account.from_json(_json(data))))
        return accounts

    def save_sessions(self, sessions: list[SessionToken]):
        _write_json(self.sessions_path, [session.to_json() for session in sessions])

    def load_sessions(self) -> list[SessionToken]:
        if not self.sessions_path.is_file():
            return []
        return _load(self.sessions_path, lambda data: [
            SessionToken.from_json(item) for item in _json(data)])

    # -- storage network --------------------------------------------------------

    def save_roster(self, network: StorageNetwork):
        _write_json(self.roster_path, [{"host_id": host.host_id, "alive": host.alive}
                                       for host in network.hosts])

    def save_fragments(self, network: StorageNetwork):
        for host in network.hosts:
            host_dir = self.hosts_dir / host.host_id
            host_dir.mkdir(exist_ok=True)
            for fragment_digest, fragment in host.fragments().items():
                path = host_dir / fragment_digest.hex()
                if not path.exists():  # named by its digest: same name, same bytes
                    _write(path, fragment)

    def save_manifest(self, manifest: FileManifest):
        link_digest = digest(manifest.core_bytes())
        _write(self.manifests_dir / f"{link_digest.hex}.manifest", manifest.to_bytes())

    def load_network(self, config: Config) -> StorageNetwork:
        roster = _load(self.roster_path, lambda data: [
            (entry["host_id"], bool(entry["alive"])) for entry in _json(data)])
        hosts = []
        for host_id, alive in roster:
            host = Host(host_id)
            # Fragments by hex name only: a temporary file starts with a dot.
            for path in sorted((self.hosts_dir / host_id).glob("[0-9a-f]*")):
                try:
                    fragment_digest = Digest.from_hex(path.name)
                except ValueError:
                    raise StateCorrupt(f"state file {path} is not named by a digest") from None
                host.store(fragment_digest, path.read_bytes())
            host.alive = alive
            hosts.append(host)
        network = StorageNetwork(hosts=hosts,
                                 replication_factor=config.replication_factor)
        for path in sorted(self.manifests_dir.glob("*.manifest")):
            network.register_manifest(_load(path, FileManifest.from_bytes))
        return network

    # -- licenses and secrets ------------------------------------------------

    def save_license(self, license: License):
        """The canonical record as hex, beside the use counter it excludes."""
        payload = {"license": license.canonical_bytes().hex(),
                   "uses_consumed": license.uses_consumed}
        _write_json(self.licenses_dir / _license_filename(license), payload)

    def load_license(self, license_id: bytes) -> License:
        path = next(self.licenses_dir.glob(f"*-{license_id.hex()}.json"), None)
        if path is None:
            raise UnknownLicense(f"no license {license_id.hex()}")
        return _read_license(path)

    def load_licenses(self, consumer_id: str, content_id: Digest) -> list[License]:
        """The licenses one consumer holds for one title, read by file name."""
        prefix = consumer_fingerprint(consumer_id, content_id).hex
        return [_read_license(path)
                for path in sorted(self.licenses_dir.glob(f"{prefix}-*.json"))]

    def save_secret(self, tx_id_hex: str, sealed_bytes: bytes):
        _write(self.secrets_dir / f"{tx_id_hex}.secret", sealed_bytes)

    def load_secret(self, tx_id_hex: str) -> bytes:
        return _load(self.secrets_dir / f"{tx_id_hex}.secret", bytes)

    # -- catalog ---------------------------------------------------------------

    def load_catalog(self) -> list[dict]:
        if not self.catalog_path.is_file():
            return []
        return _load(self.catalog_path, _json)

    def add_catalog_entry(self, title: str, skylink: SkyLink, provider_id: str):
        catalog = self.load_catalog()
        catalog.append({"title": title, "skylink": skylink.text,
                        "provider_id": provider_id})
        _write_json(self.catalog_path, catalog)

    def find_catalog_entry(self, skylink_text: str) -> dict:
        for entry in self.load_catalog():
            if entry["skylink"] == skylink_text:
                return entry
        raise UnknownSkylink(f"not in catalog: {skylink_text}")

    # -- client keystore and login ----------------------------------------------

    def save_keypair(self, id: str, keypair: KeyPair):
        payload = {"id": id, "public_key": b64u(keypair.public_key),
                   "private_key": b64u(keypair.private_key)}
        _write_json(self.keys_dir / f"{check_id(id)}.json", payload)

    def load_keypair(self, id: str) -> KeyPair:
        path = self.keys_dir / f"{check_id(id)}.json"
        if not path.is_file():
            raise StateMissing(f"no keypair for {id} (register here first)")
        return _load(path, lambda data: _decode_keypair(_json(data)))

    def save_login(self, session: SessionToken):
        _write_json(self.session_path, session.to_json())

    def load_login(self) -> SessionToken | None:
        if not self.session_path.is_file():
            return None
        return _load(self.session_path, lambda data: SessionToken.from_json(_json(data)))

    def clear_login(self):
        if self.session_path.is_file():
            self.session_path.unlink()


def _write(path: Path, data: bytes):
    """The one way a state file reaches disk: whole, or not at all."""
    temp = path.with_name(f".{path.name}.tmp")
    temp.write_bytes(data)
    os.replace(temp, path)


def _write_json(path: Path, payload):
    _write(path, json.dumps(payload, indent=2).encode("utf-8"))


def _load(path: Path, decode: Callable[[bytes], T]) -> T:
    """The one way a state file is read: DECODE of its bytes, or the
    state error that names the file."""
    try:
        return decode(path.read_bytes())
    except FileNotFoundError:
        raise StateMissing(f"state file {path} is missing") from None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # UnicodeDecodeError and json.JSONDecodeError are ValueErrors.
        raise StateCorrupt(f"state file {path} is damaged: {exc!r}") from None


def _json(data: bytes):
    return json.loads(data.decode("utf-8"))


def _decode_keypair(payload: dict) -> KeyPair:
    return KeyPair(public_key=b64u_decode(payload["public_key"]),
                   private_key=b64u_decode(payload["private_key"]))


def _license_filename(license: License) -> str:
    return f"{license.consumer_fingerprint.hex}-{license.license_id.hex()}.json"


def _read_license(path: Path) -> License:
    return _load(path, lambda data: _decode_license(path.name, _json(data)))


def _decode_license(name: str, payload: dict) -> License:
    license = License.from_canonical_bytes(bytes.fromhex(payload["license"]))
    if name != _license_filename(license):
        # Lookups trust the name, so a record filed under another name
        # (say, another consumer's fingerprint) is refused.
        raise ValueError(f"license file {name} does not match its record")
    license.uses_consumed = int(payload["uses_consumed"])
    return license


@dataclass
class World:
    """Everything a command needs, loaded cold from one state directory."""

    state: StateDirectory
    config: Config
    identity: IdentityService
    network: StorageNetwork
    chain: Chain


def load_identity(state: StateDirectory, config: Config,
                  clock: Callable[[], float]) -> IdentityService:
    """The accounts and sessions: all of the state that ``serve`` reads."""
    identity = IdentityService(clock=lambda: int(clock()),
                               challenge_ttl=config.challenge_ttl,
                               session_ttl=config.session_ttl)
    for account in state.load_accounts():
        identity.restore_account(account)
    for session in state.load_sessions():
        identity.restore_session(session)
    return identity


def load_world(root, clock: Callable[[], float] = time.time) -> World:
    state = StateDirectory(root)
    config = state.load_config()
    identity = load_identity(state, config, clock)
    network = state.load_network(config)
    chain = load_chain(state.chain_path, difficulty_bits=config.pow_difficulty,
                       clock=clock)
    return World(state=state, config=config, identity=identity,
                 network=network, chain=chain)


def save_world(world: World):
    """Persist everything except the chain, which is append-only: the
    bulk save for a world built through the library. Commands call the
    one writer for what they changed instead."""
    for account in world.identity.accounts():
        world.state.save_account(account)
    world.state.save_sessions(world.identity.sessions())
    world.state.save_roster(world.network)
    world.state.save_fragments(world.network)
    for manifest in world.network.manifests():
        world.state.save_manifest(manifest)
