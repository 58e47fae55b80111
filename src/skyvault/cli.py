"""Command-line gateway: one subcommand per workflow step.

State lives in a directory chosen by ``--state`` or the SKYVAULT_STATE
environment variable. Commands load it cold, act, and write what they
changed before exiting; a later invocation (or a different machine
pointed at a copy) sees identical state; commands on one state run one
at a time (see :mod:`skyvault.state`). A failure prints its error's
``to_json()`` on stderr, ``{"error": <stable code>, "message": ...}`` and
any details, and exits nonzero; no command prints key material.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time
from pathlib import Path

import click

from .crypto import Digest, derive_credential, generate_keypair
from .errors import (BindFailed, ChainInvalid, NotAuthenticated, OutputUnwritable,
                     RightsDenied, SkyVaultError, UnknownAction, UnknownLicense)
from .hls import DEFAULT_KEY_URI, master_playlist, package, write_package, Rendition
from .identity import solve_challenge
from .ledger import append_block
from .licensing import (
    ACTION_DOWNLOAD,
    ACTION_STREAM,
    ALL_ACTIONS,
    KeyRules,
    Rights,
    execute_purchase,
    redeem_license,
)
from .service import IdentityHttpServer
from .state import Config, StateDirectory, load_identity, load_world
from .storage import SkyLink, download_with_key, fail_host, open_file_key, revive_host
from .storage import download as storage_download
from .storage import upload as storage_upload

DEFAULT_STATE = "skyvault-state"


def cli_errors(fn):
    """Uniform failure surface: JSON on stderr, nonzero exit."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SkyVaultError as exc:
            click.echo(json.dumps(exc.to_json()), err=True)
            sys.exit(1)
    return wrapper


def with_world(fn):
    """Call ``fn(world, ...)`` with the loaded state, holding the state's
    lock from before the load until FN returns."""
    @click.pass_obj
    @cli_errors
    @functools.wraps(fn)
    def wrapper(state_root, *args, **kwargs):
        with StateDirectory(state_root).locked():
            return fn(load_world(state_root), *args, **kwargs)
    return wrapper


def _open_out(path, write=functools.partial(open, mode="wb")):
    """``write(path)``, by default PATH opened for writing; a PATH that
    cannot be written is ``OutputUnwritable``."""
    try:
        return write(path)
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc.strerror}") from None


def config_options(fn):
    """One ``--<setting>`` option per Config field, with the field's default."""
    for name, default in reversed(Config.FIELDS.items()):
        fn = click.option(f"--{name.replace('_', '-')}", type=int,
                          default=default, show_default=True)(fn)
    return fn


@click.group()
@click.option("--state", "state_root", envvar="SKYVAULT_STATE",
              default=DEFAULT_STATE, show_default=True,
              help="State directory (or set SKYVAULT_STATE).")
@click.pass_context
def main(ctx, state_root):
    """Secure content distribution over simulated decentralized storage."""
    ctx.obj = state_root


@main.command()
@config_options
@click.pass_obj
@cli_errors
def init(state_root, **settings):
    """Create the state directory with its config."""
    state = StateDirectory(state_root)
    state.initialize(Config(**settings))
    click.echo(f"Initialized state at {state.root}")


@main.command()
@click.argument("id")
@click.option("--password", prompt=True, hide_input=True,
              confirmation_prompt=False)
@with_world
def register(world, id, password):
    """Create a keypair and register ID with the identity service."""
    keypair = generate_keypair()
    account = world.identity.register(id, password, keypair.public_key)
    world.state.save_account(account)
    world.state.save_keypair(id, keypair)
    click.echo(f"Registered {id}")


@main.command()
@click.argument("id")
@click.option("--password", prompt=True, hide_input=True)
@with_world
def login(world, id, password):
    """Authenticate via challenge-response and store the session."""
    keypair = world.state.load_keypair(id)
    challenge = world.identity.begin_auth(id)
    verifier = derive_credential(id, password).verifier
    response = solve_challenge(challenge.sealed_nonce, keypair.private_key,
                               verifier)
    session = world.identity.complete_auth(challenge.challenge_id, response)
    world.state.save_login(session)
    click.echo(f"Logged in as {id}; session valid until {session.expires_at}")


def _login(world):
    """The stored login's session and the account id it is valid for."""
    session = world.state.load_login()
    if session is None:
        raise NotAuthenticated("not logged in (run login first)")
    return session, world.identity.validate_session(session.token)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@with_world
def upload(world, file):
    """Chunk, encrypt, and replicate FILE across the storage hosts."""
    keypair = world.state.load_keypair(_login(world)[1])
    with open(file, "rb") as handle:
        data = handle.read()
    link, manifest = storage_upload(data, world.network, keypair,
                                    chunk_size=world.config.chunk_size)
    world.state.save_fragments(world.network)
    world.state.save_manifest(manifest)
    click.echo(f"Successfully uploaded file! Skylink: {link.text}")


@main.command()
@click.argument("skylink")
@click.argument("out", type=click.Path(dir_okay=False))
@with_world
def download(world, skylink, out):
    """Fetch SKYLINK with your own key and write the plaintext to OUT."""
    keypair = world.state.load_keypair(_login(world)[1])
    data = storage_download(SkyLink(skylink), world.network, keypair.private_key)
    with _open_out(out) as handle:
        handle.write(data)
    click.echo("Successfully downloaded skylink!")


@main.command()
@click.argument("skylink")
@click.option("--title", required=True, help="Catalog title for the content.")
@with_world
def publish(world, skylink, title):
    """List your uploaded content, once, in the catalog so consumers can
    buy it; only the uploader's key opens the content key."""
    _, provider_id = _login(world)
    link = SkyLink(skylink)
    open_file_key(world.network.lookup(link),
                  world.state.load_keypair(provider_id).private_key)
    world.state.add_catalog_entry(title, link, provider_id)
    click.echo(f"Published {title!r} at {skylink}")


@main.command()
@click.argument("skylink")
@click.option("--valid-seconds", type=int, default=30 * 24 * 3600,
              show_default=True, help="License validity window from now.")
@click.option("--max-uses", type=int, default=None,
              help="Use budget (default: unlimited).")
@click.option("--actions", default=f"{ACTION_STREAM},{ACTION_DOWNLOAD}",
              show_default=True, help="Comma-separated allowed actions.")
@with_world
def buy(world, skylink, valid_seconds, max_uses, actions):
    """Purchase SKYLINK: license, secret block, on-chain commitment."""
    session, consumer_id = _login(world)
    consumer_account = world.identity.get_account(consumer_id)
    entry = world.state.find_catalog_entry(skylink)
    provider_keypair = world.state.load_keypair(entry["provider_id"])
    now = int(time.time())
    result = execute_purchase(
        identity=world.identity,
        session_token=session,
        content_id=SkyLink(skylink).digest(),
        content_title=entry["title"],
        provider=provider_keypair,
        provider_name=entry["provider_id"],
        consumer_account=consumer_account,
        network=world.network,
        chain=world.chain,
        rules=KeyRules(not_before=now, not_after=now + valid_seconds,
                       max_uses=max_uses),
        rights=Rights(frozenset(actions.split(","))),
        now=now,
    )
    block = world.chain.mine()
    append_block(world.state.chain_path, block)
    world.state.save_license(result.license)
    world.state.save_secret(result.tx_id.hex, result.sealed_secret_block.to_bytes())
    click.echo(f"Purchased {entry['title']!r}: license "
               f"{result.license.license_id.hex()}, tx {result.tx_id.hex} "
               f"committed in block {block.height}")


def _redeem_newest(world, keypair, consumer_id: str, content_id: Digest, action: str):
    """The newest license (by ``issued_at``, then id) that allows ACTION,
    and its key; when all deny, the newest one's reason is raised."""
    if action not in ALL_ACTIONS:
        raise UnknownAction(f"unknown action: {action!r}")
    licenses = sorted(world.state.load_licenses(consumer_id, content_id),
                      key=lambda lic: (lic.issued_at, lic.license_id), reverse=True)
    if not licenses:
        raise UnknownLicense(
            f"no license held by {consumer_id} for this content (buy first)")
    now = int(time.time())
    denied = None
    for license in licenses:
        try:
            return license, redeem_license(keypair.private_key, license, action, now)
        except RightsDenied as exc:
            denied = denied or exc
    raise denied


@main.command()
@click.argument("skylink")
@click.argument("out", type=click.Path(dir_okay=False))
@click.option("--action", default=ACTION_STREAM, show_default=True,
              help="Action to exercise against the license.")
@with_world
def play(world, skylink, out, action):
    """Redeem your license for SKYLINK, decrypt, and write plaintext to OUT."""
    _, consumer_id = _login(world)
    keypair = world.state.load_keypair(consumer_id)
    link = SkyLink(skylink)
    license, key = _redeem_newest(world, keypair, consumer_id, link.digest(), action)
    # The use is spent only once the content is fetched and OUT is open.
    data = download_with_key(link, world.network, key)
    with _open_out(out) as handle:
        world.state.save_license(license)
        handle.write(data)
    uses = ("unlimited" if license.key_rules.max_uses is None
            else f"{license.uses_consumed}/{license.key_rules.max_uses}")
    click.echo(f"Played {skylink} ({len(data)} bytes, uses: {uses})")


def _bandwidths(ctx, param, value):
    """--bandwidths as a list of positive ints (None when not given)."""
    if value:
        return [click.IntRange(min=1).convert(text, param, ctx) for text in value.split(",")]


@main.command("hls-package")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("outdir", type=click.Path(file_okay=False))
@click.option("--key-uri", default=DEFAULT_KEY_URI, show_default=True,
              help="Key URI for the playlist.")
@click.option("--key-out", type=click.Path(dir_okay=False), default=None,
              help="Write the key here; must not live inside OUTDIR.")
@click.option("--bandwidths", callback=_bandwidths,
              help="Comma-separated bits/s to also emit a master playlist.")
@with_world
def hls_package(world, file, outdir, key_uri, key_out, bandwidths):
    """Encrypt FILE into HLS segments of the state's segment_bytes (set by
    init) plus an M3U8 playlist in OUTDIR."""
    if key_out and Path(outdir).resolve() in Path(key_out).resolve().parents:
        raise click.UsageError("--key-out must not point inside OUTDIR")
    with open(file, "rb") as handle:
        media = handle.read()
    key = os.urandom(16)
    pkg = package(media, key, segment_bytes=world.config.segment_bytes,
                  key_uri=key_uri)
    master = None
    if bandwidths:
        master = master_playlist([Rendition(b, "playlist.m3u8") for b in bandwidths])
    if key_out:  # first: a package whose key was lost could never be played
        with _open_out(key_out) as handle:
            handle.write(key)
    _open_out(outdir, lambda out: write_package(pkg, out, master=master))
    click.echo(f"Packaged {len(pkg.segments)} segments into {outdir}")


@main.command("verify-chain")
@with_world
def verify_chain(world):
    """Recheck every block in the persisted chain."""
    bad_height = world.chain.verify()
    if bad_height is not None:
        raise ChainInvalid(f"chain fails verification at height {bad_height}",
                           first_bad_height=bad_height)
    click.echo("ok")


@main.group()
def host():
    """Storage host controls."""


@host.command("list")
@with_world
def host_list(world):
    for h in world.network.hosts:
        status = "up" if h.alive else "down"
        click.echo(f"{h.host_id}\t{status}\t{h.fragment_count()} fragments")


@host.command("fail")
@click.argument("host_id")
@with_world
def host_fail(world, host_id):
    fail_host(world.network, host_id)
    world.state.save_roster(world.network)
    click.echo(f"{host_id} marked down")


@host.command("revive")
@click.argument("host_id")
@with_world
def host_revive(world, host_id):
    revive_host(world.network, host_id)
    world.state.save_roster(world.network)
    click.echo(f"{host_id} marked up")


def _bind_address(ctx, param, value):
    """--bind as (host, port); an empty host is 127.0.0.1."""
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", click.IntRange(0, 65535).convert(port, param, ctx)


@main.command()
@click.option("--bind", default="127.0.0.1:8321", show_default=True,
              callback=_bind_address, help="host:port for the identity API.")
@click.pass_obj
@cli_errors
def serve(state_root, bind):
    """Run the identity endpoints as an HTTP JSON service.

    Only the accounts and the session key are loaded. Each registration
    is checked against the accounts on disk and saved as it happens,
    under the state's lock. A login writes nothing: its token carries its
    own proof, and the CLI accepts it until it expires, server or not.
    """
    state = StateDirectory(state_root)
    with state.locked():
        identity = load_identity(state, state.load_config(), time.time)

    def register(id, password, public_key):
        # Accounts other commands saved since the load come in first, so
        # that an id taken meanwhile is a duplicate here too.
        with state.locked():
            known = {account.id for account in identity.accounts()}
            for account in state.load_accounts():
                if account.id not in known:
                    identity.restore_account(account)
            account = identity.register(id, password, public_key)
            state.save_account(account)
            return account

    try:
        server = IdentityHttpServer(identity, *bind, register=register)
    except OSError as exc:
        raise BindFailed(f"cannot bind {bind[0]}:{bind[1]}: {exc.strerror}") from None

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, stop)
    signal.signal(signal.SIGTERM, stop)
    try:
        server.start()
        click.echo(f"Serving identity API on {server.url}")
        signal.pause()  # until SIGINT or SIGTERM
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        click.echo("Shut down cleanly")
