"""On-disk state: line-based config plus one directory per subsystem.

Layout under the state root::

    config                      key=value lines
    session.key                 32-byte HMAC key of the session tokens
    accounts/<id>.json          registered accounts
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

    init                        config; session.key and
                                hosts/roster.json if missing
    register                    accounts/<id>.json, keys/<id>.json
    login                       session.json
    upload                      new fragments, then its manifest
    host fail/revive            hosts/roster.json
    publish                     catalog.json
    buy                         chain.log, one license, one secret
    play                        the license it redeemed

Every writer goes through ``_write``, which writes ``.<name>.tmp`` beside
the file and renames it over the file with ``os.replace``: a command
killed mid-write leaves the old file or the new one, and no loader reads
a leftover temporary file. Each file written whole is mode 0600
whatever the umask, as keys, the session key and the login are secrets;
``chain.log`` is appended to, not written whole, and ``lock`` is empty.
A fragment file is written only when it does not exist yet, as it is
named by the digest of its bytes. ``save_world`` is the
bulk save for a world built through the library; no command calls it.

Commands on one state run one at a time: each holds
``StateDirectory.locked`` from before it loads until after it writes.
``serve`` loads only the accounts and the session key. It holds the
lock only to load them and to register an account (after restoring
those that other commands saved meanwhile), nothing else: its sessions
are tokens that carry their own proof, so it has none to save.

Every loader reads through ``_load``: a missing file is ``StateMissing``
and one that does not decode is ``StateCorrupt``, each naming the file,
so a damaged state ends a command with its JSON error, not a traceback.
Fragments are the exception: their bytes are not decoded, so a fragment
file must only be named by a digest, and a damaged one is found by that
digest when it is fetched. Names become paths only once checked: an
account file must be named by its record's id, and each roster host id
must be a plain file name by the account id rule
(``identity.check_id``), else the file is ``StateCorrupt``.

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
from pathlib import Path
from typing import Callable, TypeVar

from .crypto import Digest, KeyPair, digest
from .errors import (AlreadyPublished, BadConfig, BadIdentifier, StateCorrupt,
                     StateMissing, UnknownLicense, UnknownSkylink)
from .hls import DEFAULT_SEGMENT_BYTES
from .identity import (CHALLENGE_TTL_DEFAULT, SESSION_KEY_SIZE, SESSION_TTL_DEFAULT,
                       Account, IdentityService, SessionToken, check_id)
from .ledger import DEFAULT_DIFFICULTY_BITS, MAX_DIFFICULTY_BITS, Chain, load_chain
from .licensing import License, consumer_fingerprint
from .storage import (DEFAULT_CHUNK_SIZE, DEFAULT_REPLICATION, FileManifest,
                      Host, SkyLink, StorageNetwork)
from .wire import Record, b64u, b64u_decode

T = TypeVar("T")

CONFIG_FILENAME = "config"
CHAIN_FILENAME = "chain.log"


class Config(Record):
    replication_factor: int = DEFAULT_REPLICATION
    chunk_size: int = DEFAULT_CHUNK_SIZE
    pow_difficulty: int = DEFAULT_DIFFICULTY_BITS
    challenge_ttl: int = CHALLENGE_TTL_DEFAULT
    session_ttl: int = SESSION_TTL_DEFAULT
    host_count: int = 5
    segment_bytes: int = DEFAULT_SEGMENT_BYTES

    def __post_init__(self):
        for name in self.FIELDS:
            if getattr(self, name) <= 0:
                raise BadConfig(f"{name} must be positive")
        if self.pow_difficulty > MAX_DIFFICULTY_BITS:
            raise BadConfig(f"pow_difficulty {self.pow_difficulty} exceeds "
                            f"{MAX_DIFFICULTY_BITS}, the bits of a block hash")
        if self.chunk_size >= 1 << 64:
            raise BadConfig(f"chunk_size {self.chunk_size} exceeds 2^64 - 1, "
                            "the largest a manifest stores")
        if self.replication_factor > self.host_count:
            raise BadConfig(
                f"replication_factor {self.replication_factor} exceeds "
                f"host_count {self.host_count}")

    def to_text(self) -> str:
        return "".join(f"{name}={getattr(self, name)}\n" for name in self.FIELDS)

    @classmethod
    def from_text(cls, text: str) -> "Config":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in cls.FIELDS:
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
    def session_key_path(self) -> Path:
        return self.root / "session.key"

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
        # A second init keeps the key, and so every token issued, and the hosts.
        if not self.session_key_path.is_file():
            _write(self.session_key_path, os.urandom(SESSION_KEY_SIZE))
        if not self.roster_path.is_file():
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
        return [_load(path, lambda data: _decode_account(path.stem, _json(data)))
                for path in sorted(self.accounts_dir.glob("*.json"))]

    def load_session_key(self) -> bytes:
        return _load(self.session_key_path, _decode_session_key)

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
        roster = _load(self.roster_path, _decode_roster)
        hosts = []
        for entry in roster:
            host = Host(entry["host_id"])
            # Fragments by hex name only: a temporary file starts with a dot.
            for path in sorted((self.hosts_dir / host.host_id).glob("[0-9a-f]*")):
                try:
                    fragment_digest = Digest.from_hex(path.name)
                except ValueError:
                    raise StateCorrupt(f"state file {path} is not named by a digest") from None
                host.store(fragment_digest, path.read_bytes())
            host.alive = entry["alive"]
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
        return _load(self.catalog_path, lambda data: _objects(
            data, {"title": str, "skylink": str, "provider_id": str}, "skylink"))

    def add_catalog_entry(self, title: str, skylink: SkyLink, provider_id: str):
        catalog = self.load_catalog()
        if any(entry["skylink"] == skylink.text for entry in catalog):
            raise AlreadyPublished(f"already in catalog: {skylink.text}")
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


def _write(path: Path, data: bytes):
    """The one way a state file reaches disk: whole, or not at all, and
    readable by its owner only."""
    temp = path.with_name(f".{path.name}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "wb") as handle:
        os.fchmod(fd, 0o600)  # also a temp file that a killed write left
        handle.write(data)
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


def _decode_session_key(data: bytes) -> bytes:
    if len(data) != SESSION_KEY_SIZE:
        raise ValueError(f"session key is {len(data)} bytes, not {SESSION_KEY_SIZE}")
    return data


def _objects(data: bytes, types: dict[str, type], unique: str) -> list[dict]:
    """DATA as its writer writes it: a JSON list of objects with exactly the
    keys and value types of TYPES, no two with one value of UNIQUE."""
    items = _json(data)
    if type(items) is not list or not all(
            type(item) is dict and item.keys() == types.keys()
            and all(type(item[key]) is kind for key, kind in types.items())
            for item in items):
        raise ValueError(f"not a list of objects of {list(types)}")
    if len({item[unique] for item in items}) != len(items):
        raise ValueError(f"two entries with one {unique}")
    return items


def _decode_account(stem: str, payload: dict) -> Account:
    account = Account.from_json(payload)
    if account.id != stem:
        # Lookups trust the name: a record filed under another name would
        # be read as that account, or twice as its own.
        raise ValueError(f"account file {stem}.json does not match its record")
    return account


def _decode_roster(data: bytes) -> list[dict]:
    roster = _objects(data, {"host_id": str, "alive": bool}, "host_id")
    for entry in roster:
        # Each id names the host's directory under hosts/.
        try:
            check_id(entry["host_id"])
        except BadIdentifier:
            raise ValueError(f"host id {entry['host_id']!r} is not a plain file name") from None
    return roster


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
    uses, max_uses = payload["uses_consumed"], license.key_rules.max_uses
    # Only redeem_license moves the counter: from 0, by one, up to max_uses.
    if type(uses) is not int or uses < 0 or (max_uses is not None and uses > max_uses):
        raise ValueError(f"license use counter {uses!r} is out of range")
    license.uses_consumed = uses
    return license


class World(Record, frozen=False):
    """Everything a command needs, loaded cold from one state directory."""

    state: StateDirectory
    config: Config
    identity: IdentityService
    network: StorageNetwork
    chain: Chain


def load_identity(state: StateDirectory, config: Config,
                  clock: Callable[[], float]) -> IdentityService:
    """The accounts and the session key: all of the state that ``serve`` reads."""
    identity = IdentityService(clock=lambda: int(clock()),
                               challenge_ttl=config.challenge_ttl,
                               session_ttl=config.session_ttl,
                               session_key=state.load_session_key())
    for account in state.load_accounts():
        identity.restore_account(account)
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
    world.state.save_roster(world.network)
    world.state.save_fragments(world.network)
    for manifest in world.network.manifests():
        world.state.save_manifest(manifest)
