"""The two CLI workloads: ``storefront`` (consumers) and ``archive`` (a provider).

Each workload builds its state through the program's own library calls,
then yields an endless, seeded sequence of ``Op``s. A phase is one pass of
that sequence over its own copy of the set-up state; the checks of an op
run after it, outside its timing, and ``final_checks`` runs after the
phase.
"""

from __future__ import annotations

import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import Op, restore_state, sha256

PROVIDER = "studio-prime"
MIB = 1 << 20


@dataclass
class Account:
    id: str
    password: str
    keypair: object


@dataclass
class StoredFile:
    name: str
    link: str
    digest: bytes
    size: int
    path: Path | None = None


def new_state(state_dir: Path):
    from skyvault import state
    state.StateDirectory(state_dir).initialize(state.Config())
    return state.load_world(state_dir)


def register_account(world, rng: random.Random, account_id: str) -> Account:
    from skyvault import crypto
    account = Account(account_id, f"pw-{rng.getrandbits(64):016x}",
                      crypto.generate_keypair(rng.randbytes(32)))
    world.identity.register(account.id, account.password, account.keypair.public_key)
    world.state.save_keypair(account.id, account.keypair)
    return account


def _expect(prefix: str):
    def check(out: str):
        return None if out.startswith(prefix) else f"unexpected output {out[:120]!r}"
    return check


def _expect_hosts(alive: dict[str, bool]):
    def check(out: str):
        lines = [line.split("\t") for line in out.strip().splitlines()]
        seen = {parts[0]: parts[1] == "up" for parts in lines if len(parts) == 3}
        return None if seen == alive else f"host list {seen} != {alive}"
    return check


def _file_matches(path: Path, digest: bytes) -> str | None:
    try:
        data = path.read_bytes()
    except OSError as exc:
        return f"no output: {exc}"
    finally:
        path.unlink(missing_ok=True)
    return None if sha256(data) == digest else "output bytes differ from the input"


# -- storefront ----------------------------------------------------------------


@dataclass
class StorefrontSetup:
    state_dir: Path
    consumers: list[Account]
    titles: list[StoredFile]
    blocks: int


@dataclass
class Purchase:
    max_uses: int
    license_id: str | None = None
    plays: int = 0


@dataclass
class StorefrontPhase:
    setup: StorefrontSetup
    state_dir: Path
    out_dir: Path
    buys: int = 0
    purchases: list[Purchase] = field(default_factory=list)


class Storefront:
    """Consumer traffic on a store with a 1,000-block chain and 1,000 licenses."""

    name = "storefront"
    consumers = 50
    titles = 8
    prior_purchases = 1000

    def inputs(self, seed: int, inputs_dir: Path):
        return None

    def build(self, state_dir: Path, seed: int, inputs=None) -> StorefrontSetup:
        from skyvault import crypto, identity, ledger, licensing, state, storage
        rng = random.Random(f"storefront-setup-{seed}")
        world = new_state(state_dir)
        provider = register_account(world, rng, PROVIDER)
        consumers = [register_account(world, rng, f"consumer-{i:02d}")
                     for i in range(self.consumers)]
        # Evenly spaced sizes in a seeded order: the seed changes the bytes and
        # which title is which size, never how many bytes the store holds.
        step = (MIB - (256 << 10)) // (self.titles - 1)
        sizes = [(256 << 10) + i * step for i in range(self.titles)]
        rng.shuffle(sizes)
        titles = []
        for i, size in enumerate(sizes):
            data = rng.randbytes(size)
            link, _ = storage.upload(data, world.network, provider.keypair,
                                     chunk_size=world.config.chunk_size)
            title = f"Title {i}"
            world.state.add_catalog_entry(title, link, PROVIDER)
            titles.append(StoredFile(title, link.text, sha256(data), len(data)))
        # Earlier purchases, ten minutes back so that every license bought
        # during the run is the newest one its consumer holds for the title.
        now = int(time.time()) - 600
        sessions = {}
        for consumer in consumers:
            challenge = world.identity.begin_auth(consumer.id)
            verifier = crypto.derive_credential(consumer.id, consumer.password).verifier
            response = identity.solve_challenge(challenge.sealed_nonce,
                                                consumer.keypair.private_key, verifier)
            sessions[consumer.id] = world.identity.complete_auth(
                challenge.challenge_id, response)
        for _ in range(self.prior_purchases):
            consumer = consumers[rng.randrange(len(consumers))]
            title = titles[rng.randrange(len(titles))]
            result = licensing.execute_purchase(
                identity=world.identity, session_token=sessions[consumer.id],
                content_id=storage.SkyLink(title.link).digest(), content_title=title.name,
                provider=provider.keypair, provider_name=PROVIDER,
                consumer_account=world.identity.get_account(consumer.id),
                network=world.network, chain=world.chain,
                rules=licensing.KeyRules(not_before=now, not_after=now + 30 * 86400),
                rights=licensing.Rights.default(), now=now)
            block = world.chain.mine()
            ledger.append_block(world.state.chain_path, block)
            world.state.save_license(result.license)
            world.state.save_secret(result.tx_id.hex, result.sealed_secret_block.to_bytes())
        state.save_world(world)
        return StorefrontSetup(state_dir, consumers, titles, world.chain.height())

    def phase(self, setup: StorefrontSetup, state_dir: Path, scratch: Path) -> StorefrontPhase:
        restore_state(setup.state_dir, state_dir)
        scratch.mkdir(parents=True, exist_ok=True)
        return StorefrontPhase(setup, state_dir, scratch)

    def ops(self, phase: StorefrontPhase, seed: int):
        """Visits: login, buy, 1-3 plays; every 10th visit, the first
        included, also audits with ``verify-chain`` and ``host list``."""
        setup = phase.setup
        rng = random.Random(f"storefront-ops-{seed}")
        order: list[int] = []
        play_counts: list[int] = []
        visit = 0
        while True:
            if not order:
                order = rng.sample(range(len(setup.consumers)), len(setup.consumers))
            if not play_counts:
                play_counts = rng.sample([1, 2, 3], 3)
            consumer = setup.consumers[order.pop()]
            title = setup.titles[rng.randrange(len(setup.titles))]
            plays = play_counts.pop()
            purchase = Purchase(max_uses=plays + rng.randint(1, 3))
            yield Op("login", ["login", consumer.id, "--password", consumer.password],
                     _expect(f"Logged in as {consumer.id};"), starts_round=True)
            yield Op("buy", ["buy", title.link, "--max-uses", str(purchase.max_uses)],
                     self._check_buy(phase, purchase))
            out = phase.out_dir / "play.bin"
            for _ in range(plays):
                yield Op("play", ["play", title.link, str(out)],
                         self._check_play(purchase, title, out), user_bytes=title.size)
            if visit % 10 == 0:
                yield Op("verify-chain", ["verify-chain"],
                         lambda out: None if out.strip() == "ok" else f"verify-chain: {out!r}")
                yield Op("host list", ["host", "list"],
                         _expect_hosts({f"h{i}": True for i in range(5)}))
            visit += 1

    @staticmethod
    def _check_buy(phase: StorefrontPhase, purchase: Purchase):
        def check(out: str):
            match = re.search(r"license ([0-9a-f]+), tx [0-9a-f]+ committed in block (\d+)", out)
            if match is None:
                return f"unexpected buy output {out[:120]!r}"
            expected = phase.setup.blocks + phase.buys
            if int(match.group(2)) != expected:
                return f"mined at height {match.group(2)}, expected {expected}"
            phase.buys += 1
            purchase.license_id = match.group(1)
            phase.purchases.append(purchase)
            return None
        return check

    @staticmethod
    def _check_play(purchase: Purchase, title: StoredFile, out_path: Path):
        def check(out: str):
            problem = _file_matches(out_path, title.digest)
            if problem:
                return problem
            expected = f"uses: {purchase.plays + 1}/{purchase.max_uses})"
            if expected not in out:
                return f"play output {out.strip()[-40:]!r} lacks {expected!r}"
            purchase.plays += 1
            return None
        return check

    def final_checks(self, phase: StorefrontPhase) -> list[str]:
        from skyvault import ledger, state
        problems = []
        directory = state.StateDirectory(phase.state_dir)
        for purchase in phase.purchases:
            lic = directory.load_license(bytes.fromhex(purchase.license_id))
            if lic.uses_consumed != purchase.plays:
                problems.append(f"license {purchase.license_id[:8]}: uses_consumed "
                                f"{lic.uses_consumed} != plays {purchase.plays}")
        chain = ledger.load_chain(directory.chain_path,
                                  difficulty_bits=directory.load_config().pow_difficulty)
        if chain.height() != phase.setup.blocks + phase.buys:
            problems.append(f"chain height {chain.height()} != "
                            f"{phase.setup.blocks} + {phase.buys}")
        if chain.verify() is not None:
            problems.append("chain does not verify")
        return problems


# -- archive ---------------------------------------------------------------------


@dataclass
class ArchiveSetup:
    state_dir: Path
    provider: Account
    files: list[StoredFile]


@dataclass
class ArchivePhase:
    setup: ArchiveSetup
    state_dir: Path
    scratch: Path


class Archive:
    """Provider bulk traffic over 32 MiB stored (96 MiB of fragments)."""

    name = "archive"
    stored_files = 8
    file_bytes = 4 * MIB

    def inputs(self, seed: int, inputs_dir: Path) -> list[tuple[Path, bytes]]:
        rng = random.Random(f"archive-setup-{seed}")
        inputs_dir.mkdir(parents=True, exist_ok=True)
        files = []
        for i in range(self.stored_files):
            data = rng.randbytes(self.file_bytes)
            path = inputs_dir / f"stored-{i}.bin"
            path.write_bytes(data)
            files.append((path, data))
        return files

    def build(self, state_dir: Path, seed: int, inputs) -> ArchiveSetup:
        from skyvault import state, storage
        rng = random.Random(f"archive-accounts-{seed}")
        world = new_state(state_dir)
        provider = register_account(world, rng, PROVIDER)
        files = []
        for path, data in inputs:
            link, _ = storage.upload(data, world.network, provider.keypair,
                                     chunk_size=world.config.chunk_size)
            files.append(StoredFile(path.name, link.text, sha256(data), len(data), path))
        state.save_world(world)
        return ArchiveSetup(state_dir, provider, files)

    def phase(self, setup: ArchiveSetup, state_dir: Path, scratch: Path) -> ArchivePhase:
        restore_state(setup.state_dir, state_dir)
        scratch.mkdir(parents=True, exist_ok=True)
        return ArchivePhase(setup, state_dir, scratch)

    def ops(self, phase: ArchivePhase, seed: int):
        """Rounds of 12 commands in a fixed order. Each round after the first
        starts from the set-up state again, so uploads never grow the state
        beyond one round's worth and every round sees the same state."""
        setup = phase.setup
        provider = setup.provider
        rng = random.Random(f"archive-ops-{seed}")
        all_up = {f"h{i}": True for i in range(5)}
        round_no = 0
        while True:
            down = f"h{rng.randrange(5)}"
            reads = [rng.choice(setup.files) for _ in range(3)]
            hls_source = rng.choice(setup.files)
            upload_seeds = [rng.getrandbits(64) for _ in range(2)]
            reset = self._reset(phase) if round_no else None
            login = ["login", provider.id, "--password", provider.password]
            yield Op("login", login, _expect(f"Logged in as {provider.id};"), prepare=reset,
                     starts_round=True)
            yield Op("host list", ["host", "list"], _expect_hosts(all_up))
            yield self._upload(phase, upload_seeds[0])
            yield self._download(phase, reads[0])
            yield self._hls(phase, hls_source)
            yield Op("host fail", ["host", "fail", down], _expect(f"{down} marked down"))
            yield self._download(phase, reads[1])
            yield self._download(phase, reads[2])
            yield Op("host revive", ["host", "revive", down], _expect(f"{down} marked up"))
            yield self._upload(phase, upload_seeds[1])
            yield Op("login", login, _expect(f"Logged in as {provider.id};"))
            yield Op("host list", ["host", "list"], _expect_hosts(all_up))
            round_no += 1

    @staticmethod
    def _reset(phase: ArchivePhase):
        return lambda: restore_state(phase.setup.state_dir, phase.state_dir)

    def _upload(self, phase: ArchivePhase, data_seed: int) -> Op:
        path = phase.scratch / "upload.bin"
        size = self.file_bytes

        def prepare():
            path.write_bytes(random.Random(data_seed).randbytes(size))

        def check(out: str):
            return None if "Skylink: sia://" in out else f"unexpected upload output {out[:120]!r}"

        return Op("upload", ["upload", str(path)], check, prepare, user_bytes=size)

    @staticmethod
    def _download(phase: ArchivePhase, stored: StoredFile) -> Op:
        out = phase.scratch / "download.bin"
        return Op("download", ["download", stored.link, str(out)],
                  lambda text: _file_matches(out, stored.digest), user_bytes=stored.size)

    @staticmethod
    def _hls(phase: ArchivePhase, stored: StoredFile) -> Op:
        outdir = phase.scratch / "hls"
        key_path = phase.scratch / "hls.key"

        def prepare():
            shutil.rmtree(outdir, ignore_errors=True)

        def check(out: str):
            from skyvault import hls
            try:
                key = key_path.read_bytes()
                pkg = hls.read_package(outdir, key)
                hls.validate_media_playlist(pkg.media_playlist)
                same = sha256(hls.unpackage(pkg, key)) == stored.digest
            except Exception as exc:  # any failure to read back is a failed op
                return f"hls output unreadable: {type(exc).__name__}: {exc}"
            return None if same else "hls output does not decrypt to the input"

        return Op("hls-package", ["hls-package", str(stored.path), str(outdir),
                                  "--key-out", str(key_path)],
                  check, prepare, user_bytes=stored.size)

    def final_checks(self, phase: ArchivePhase) -> list[str]:
        return []
