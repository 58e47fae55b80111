"""Every decoder, fed any input, returns a value that encodes back to
that input, or refuses it with ``ValueError`` or a ``SkyVaultError``.

For the binary records "encodes back" means to the exact bytes. The
text formats (config, playlists) allow comments and blank lines, so for
them the decoded value must come back unchanged from its own encoding.

Inputs are raw bytes or text, a valid encoding with one byte or line
edited, or a valid encoding with one field replaced, dropped or
repeated, so that the checks past the framing (counts, lengths,
recomputed hashes) are reached as well. Examples are derandomized:
every run tries the same inputs. Each ``@example`` is an input that a
decoder once accepted without round-tripping, or that escaped as another
exception.
"""

import json
import re
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skyvault.crypto import Envelope, digest, generate_keypair
from skyvault.errors import InvalidToken, SkyVaultError
from skyvault.hls import (
    Rendition,
    master_playlist,
    package,
    validate_master_playlist,
    validate_media_playlist,
)
from skyvault.ledger import (
    Block,
    Chain,
    Transaction,
    make_transaction,
    parse_chain,
    serialize_chain,
)
from skyvault.identity import IdentityService, check_id
from skyvault.licensing import (
    ALL_ACTIONS,
    KeyRules,
    License,
    Rights,
    SecretBlock,
    consumer_fingerprint,
)
from skyvault.state import Config, StateDirectory, _decode_license, _license_filename
from skyvault.storage import ChunkRecord, FileManifest, SkyLink
from skyvault.wire import b64u, b64u_decode, pack_fields, u64, unpack_fields

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

NOW = 1_700_000_000
PROVIDER = generate_keypair(b"\x01" * 32)
CONSUMER = generate_keypair(b"\x02" * 32)
ENVELOPE = Envelope(bytes(range(32)), bytes(range(12)), b"sealed bytes")
RULES = KeyRules(NOW, NOW + 86_400, 5)
RIGHTS = Rights(ALL_ACTIONS)
RECORD = ChunkRecord(1, digest(b"chunk 1"), ("h0", "h1"))
MANIFEST = FileManifest(digest(b"file"), 5000, 4096,
                        (ChunkRecord(0, digest(b"chunk 0"), ("h2",)), RECORD), ENVELOPE)


def _license(rules: KeyRules = RULES) -> License:
    content_id = digest(b"content")
    license = License(
        license_id=bytes(16), consumer_id="alice-consumer",
        consumer_public_key=CONSUMER.public_key, content_id=content_id,
        enveloped_content_key=ENVELOPE, key_rules=rules, rights=RIGHTS,
        consumer_fingerprint=consumer_fingerprint("alice-consumer", content_id),
        issued_at=NOW, license_hash=digest(b""))
    license.license_hash = license.compute_hash()
    return license


def _chain() -> Chain:
    """Two blocks at difficulty 0, the first holding two transactions."""
    chain = Chain(difficulty_bits=0, clock=lambda: NOW)
    for n_txs in (2, 1):
        for _ in range(n_txs):
            n = len(chain.blocks) * 2 + len(chain.pending)
            tx = make_transaction(PROVIDER, CONSUMER.public_key, digest(b"content %d" % n),
                                  digest(b"secret %d" % n), NOW)
            chain.submit(tx, PROVIDER.public_key)
        chain.mine()
    return chain


LICENSE = _license()
SECRET = SecretBlock(digest(b""), digest(b"tip"), NOW, digest(b"auth"), "studio-prime",
                     ENVELOPE, LICENSE.license_hash)
SECRET = SECRET.replace(block_hash=SECRET.compute_hash())
CHAIN = _chain()
BLOCK = CHAIN.blocks[0]
TX = BLOCK.transactions[0]

# Field values the decoders treat specially: u64s at the edges (and the
# offline flag's 0, 1 and 2), digest-sized blobs, action names, text
# that is not UTF-8, and whole nested records.
FIELDS = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([
        u64(0), u64(1), u64(2), u64(NOW), u64(2**64 - 1), bytes(32), digest(b"x").value,
        b"stream", b"download", b"re-license", b"teleport", b"\xff\xfe",
        ENVELOPE.to_bytes(), RULES.to_bytes(), RIGHTS.to_bytes(), RECORD.to_bytes(),
        TX.to_bytes(),
    ]),
)


def _splice(items: list, i: int, new: list) -> list:
    """ITEMS with the item at I replaced by NEW (which may be empty)."""
    return items[:i] + new + items[i + 1:]


def edits(valid: bytes):
    """VALID, VALID with one byte cut off, flipped or inserted, or raw bytes."""
    n = len(valid)
    return st.one_of(
        st.just(valid),
        st.binary(max_size=80),
        st.integers(0, n - 1).map(lambda i: valid[:i]),
        st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(
            lambda t: valid[:t[0]] + bytes([valid[t[0]] ^ t[1]]) + valid[t[0] + 1:]),
        st.tuples(st.integers(0, n), st.binary(min_size=1, max_size=8)).map(
            lambda t: valid[:t[0]] + t[1] + valid[t[0]:]),
    )


def variants(valid: bytes):
    """``edits(VALID)``, VALID with one field replaced, dropped or repeated,
    or any packed list of fields."""
    fields = unpack_fields(valid)
    n = len(fields)
    return st.one_of(
        edits(valid),
        st.lists(FIELDS, max_size=12).map(pack_fields),
        st.tuples(st.integers(0, n - 1), FIELDS).map(
            lambda t: pack_fields(_splice(fields, t[0], [t[1]]))),
        st.integers(0, n - 1).map(lambda i: pack_fields(_splice(fields, i, []))),
        st.integers(0, n - 1).map(lambda i: pack_fields(_splice(fields, i, [fields[i]] * 2))),
    )


def round_trips(decode, encode, data):
    try:
        value = decode(data)
    except (ValueError, SkyVaultError):
        return
    assert encode(value) == data


def value_round_trips(decode, encode, data):
    try:
        value = decode(data)
    except (ValueError, SkyVaultError):
        return
    assert decode(encode(value)) == value


# -- binary records -----------------------------------------------------------

@PROPERTY
@given(variants(pack_fields([b"a", b"", b"bc"])))
def test_unpack_fields(data):
    round_trips(unpack_fields, pack_fields, data)


@PROPERTY
@given(variants(RECORD.to_bytes()))
def test_chunk_record(data):
    round_trips(ChunkRecord.from_bytes, ChunkRecord.to_bytes, data)


@PROPERTY
@given(variants(MANIFEST.to_bytes()))
def test_file_manifest(data):
    round_trips(FileManifest.from_bytes, FileManifest.to_bytes, data)


@PROPERTY
@given(variants(ENVELOPE.to_bytes()))
def test_envelope(data):
    round_trips(Envelope.from_bytes, Envelope.to_bytes, data)


@PROPERTY
@given(variants(TX.to_bytes()))
def test_transaction(data):
    round_trips(Transaction.from_bytes, Transaction.to_bytes, data)


@PROPERTY
@given(variants(BLOCK.to_bytes()))
def test_block(data):
    round_trips(Block.from_bytes, Block.to_bytes, data)


def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload + digest(payload).value


@PROPERTY
@given(st.one_of(
    edits(serialize_chain(CHAIN)),
    # Records with good checksums around payloads that may not decode.
    st.lists(st.one_of(st.sampled_from([block.to_bytes() for block in CHAIN.blocks]),
                       variants(BLOCK.to_bytes())),
             max_size=3).map(lambda payloads: b"".join(map(_frame, payloads)))))
def test_parse_chain(data):
    round_trips(parse_chain, serialize_chain, data)


@PROPERTY
@example(pack_fields([u64(NOW), u64(NOW + 1), u64(5), u64(2)]))  # offline flag 2
@given(st.one_of(variants(RULES.to_bytes()),
                 variants(KeyRules(0, 2**64 - 1, None, True).to_bytes())))
def test_key_rules(data):
    round_trips(KeyRules.from_bytes, KeyRules.to_bytes, data)


@PROPERTY
@example(pack_fields([b"stream", b"download"]))
@example(pack_fields([b"stream", b"stream"]))
@given(variants(RIGHTS.to_bytes()))
def test_rights(data):
    round_trips(Rights.from_bytes, Rights.to_bytes, data)


@PROPERTY
@given(variants(LICENSE.canonical_bytes()))
def test_license(data):
    round_trips(License.from_canonical_bytes, License.canonical_bytes, data)


def _license_file(license: License, uses) -> str:
    return json.dumps({"license": license.canonical_bytes().hex(), "uses_consumed": uses})


@PROPERTY
@example(LICENSE, -3)  # allowed four plays of a --max-uses 1 license
@example(LICENSE, True)
@example(LICENSE, 6)
@given(st.sampled_from([LICENSE, _license(KeyRules(NOW, NOW + 86_400))]),
       st.one_of(st.integers(-3, 8), st.sampled_from([True, False, 5.0, "1", None, 2**64])))
def test_license_use_counter(license, uses):
    # Only redeem_license moves the counter: from 0, by one, up to max_uses.
    max_uses = license.key_rules.max_uses
    writable = type(uses) is int and uses >= 0 and (max_uses is None or uses <= max_uses)
    text = _license_file(license, uses)
    try:
        decoded = _decode_license(_license_filename(license), json.loads(text))
    except (ValueError, SkyVaultError):
        assert not writable
        return
    assert writable and _license_file(decoded, decoded.uses_consumed) == text


@PROPERTY
@given(variants(SECRET.to_bytes()))
def test_secret_block(data):
    round_trips(SecretBlock.from_bytes, SecretBlock.to_bytes, data)


SESSIONS = IdentityService(clock=lambda: NOW, session_key=bytes(range(32)))
SESSIONS.register("alice-consumer", "sturdy password", CONSUMER.public_key)
_CHALLENGE = SESSIONS.begin_auth("alice-consumer")
TOKEN = SESSIONS.complete_auth(_CHALLENGE.challenge_id, digest(
    _CHALLENGE.nonce + SESSIONS.get_account("alice-consumer").verifier.value)).token


@PROPERTY
@given(st.one_of(edits(TOKEN), st.binary(min_size=56, max_size=130)))
def test_session_token(data):
    # Only the minted token validates; anything else is InvalidToken,
    # never another exception.
    if data == TOKEN:
        assert SESSIONS.validate_session(data) == "alice-consumer"
    else:
        with pytest.raises(InvalidToken):
            SESSIONS.validate_session(data)


# -- text ---------------------------------------------------------------------

B64U_TEXT = st.one_of(
    st.binary(max_size=33).map(b64u),
    st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_=+/ .\n",
            max_size=12),
    st.text(max_size=8),
)


@PROPERTY
@example("AB")  # unused bits set
@example("+/+/")
@given(B64U_TEXT)
def test_b64u_decode(text):
    round_trips(b64u_decode, b64u, text)


@PROPERTY
@example("sia://" + "A" * 42 + "B")
@given(st.one_of(st.binary(min_size=32, max_size=32).map(lambda b: "sia://" + b64u(b)),
                 B64U_TEXT.map(lambda t: "sia://" + "A" * 40 + t),
                 B64U_TEXT.map(lambda t: "sia://" + t),
                 st.text(max_size=50)))
def test_skylink_digest(text):
    round_trips(lambda t: SkyLink(t).digest(), lambda d: SkyLink.from_digest(d).text, text)


CONFIG_NAMES = list(Config.FIELDS)
CONFIG_LINES = st.one_of(
    st.sampled_from(["", "   ", "# comment", "=5", "chunk_size"]),
    st.tuples(st.sampled_from(CONFIG_NAMES + ["bogus"]),
              st.one_of(st.integers(-3, 10**7).map(str), st.text(max_size=5))).map(
        lambda t: f"{t[0]}={t[1]}"),
    st.text(max_size=12),
)


@PROPERTY
@given(st.lists(CONFIG_LINES, max_size=9).map("\n".join))
def test_config_from_text(text):
    value_round_trips(Config.from_text, Config.to_text, text)


NUMBERS = st.sampled_from(["0", "1", "3", "6", "12", "", "-1", "1.5", "6.0", "0.0000001",
                           "²", "9" * 400])


def _line_edits(valid: str, line):
    """VALID, VALID with one line dropped, repeated, replaced or inserted
    or with the first number in one line replaced, or any lines at all."""
    lines = valid.splitlines()
    n = len(lines)
    return st.one_of(
        st.just(valid),
        st.tuples(st.integers(0, n - 1), NUMBERS).map(lambda t: _splice(
            lines, t[0], [re.sub(r"[0-9.]+", t[1], lines[t[0]], count=1)])),
        st.integers(0, n - 1).map(lambda i: _splice(lines, i, [])),
        st.integers(0, n - 1).map(lambda i: _splice(lines, i, [lines[i]] * 2)),
        st.tuples(st.integers(0, n - 1), line).map(lambda t: _splice(lines, t[0], [t[1]])),
        st.tuples(st.integers(0, n), line).map(lambda t: lines[:t[0]] + [t[1]] + lines[t[0]:]),
        st.lists(line, max_size=12),
    ).map(lambda parts: parts if isinstance(parts, str) else "\n".join(parts) + "\n")


MEDIA_LINES = st.one_of(
    st.sampled_from(["#EXTM3U", "#EXT-X-ENDLIST", "#EXT-X-OTHER", "seg0.ts", "seg1.ts", "",
                     '#EXT-X-KEY:METHOD=AES-128,URI="k"', "#EXT-X-KEY:METHOD=AES-128"]),
    st.tuples(st.sampled_from(["#EXT-X-VERSION:", "#EXT-X-TARGETDURATION:",
                               "#EXT-X-MEDIA-SEQUENCE:"]), NUMBERS).map("".join),
    NUMBERS.map(lambda n: f"#EXTINF:{n},"),
    st.text(max_size=12),
)


VALID_MEDIA = package(b"m" * 40, bytes(16), segment_bytes=16).media_playlist


def _render_media(parsed) -> str:
    lines = ["#EXTM3U", f"#EXT-X-VERSION:{parsed.version}",
             f"#EXT-X-TARGETDURATION:{parsed.target_duration}",
             f"#EXT-X-MEDIA-SEQUENCE:{parsed.media_sequence}",
             f'#EXT-X-KEY:METHOD={parsed.key_method},URI="{parsed.key_uri}"']
    for duration, name in parsed.segments:
        lines += [f"#EXTINF:{Decimal(duration):f},", name]
    return "\n".join(lines + ["#EXT-X-ENDLIST"]) + "\n"


@PROPERTY
@example(VALID_MEDIA.replace("#EXTINF:6.0,", "#EXTINF:" + "9" * 400 + ",", 1))  # overflows
@given(_line_edits(VALID_MEDIA, MEDIA_LINES))
def test_validate_media_playlist(text):
    value_round_trips(validate_media_playlist, _render_media, text)


MASTER_LINES = st.one_of(
    st.sampled_from(["#EXTM3U", "#EXT-X-VERSION:3", "#EXT-X-STREAM-INF:", "low.m3u8",
                     "hi.m3u8", ""]),
    NUMBERS.map(lambda n: f"#EXT-X-STREAM-INF:BANDWIDTH={n}"),
    st.text(max_size=12),
)


@PROPERTY
@given(_line_edits(master_playlist([Rendition(800_000, "low.m3u8"),
                                    Rendition(2_400_000, "hi.m3u8")]).text, MASTER_LINES))
def test_validate_master_playlist(text):
    value_round_trips(validate_master_playlist,
                      lambda renditions: master_playlist(list(renditions)).text, text)


# -- JSON state files ---------------------------------------------------------
# Loaded, then saved again by the file's own writer, a file gives back the
# same JSON value; anything else is StateCorrupt.

JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1, 2), st.just(1.0),
                         st.sampled_from(["", "h0", "h1", "false", "sia://AAAA", "T"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["a", "host_id", "title"]),
                                            inner, max_size=3)),
    max_leaves=6)


# The last five ids are not plain file names: joined to hosts/, none of
# them names one directory just below it.
ROSTER_ENTRY = st.fixed_dictionaries({"host_id": st.sampled_from(
                                          ["h0", "h1", "h2", "../../outside", "..", "a/b",
                                           "/tmp", ""]),
                                      "alive": st.booleans()})
CATALOG_ENTRY = st.fixed_dictionaries({
    "title": st.sampled_from(["T", ""]),
    "skylink": st.sampled_from(["sia://AAAA", "sia://BBBB", "s"]),
    "provider_id": st.sampled_from(["p", "h0"])})


def _edit(entry: dict, key: str, value, drop: bool) -> dict:
    entry = dict(entry)
    if drop:
        entry.pop(key, None)
    else:
        entry[key] = value
    return entry


def _entries(entry):
    """Lists of ENTRYs, some with one key dropped or set to any scalar."""
    keys = st.sampled_from(["host_id", "alive", "title", "skylink", "provider_id", "other"])
    edited = st.tuples(entry, keys, JSON_SCALARS, st.booleans()).map(lambda t: _edit(*t))
    return st.lists(st.one_of(entry, edited), max_size=3)


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True)


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    state = StateDirectory(tmp_path_factory.mktemp("decoders") / "state")
    state.initialize(Config())
    return state


@PROPERTY
@example([{"host_id": 5, "alive": True}])
@example([{"host_id": "h0", "alive": "false"}])
@example([{"host_id": "h0", "alive": 1}])
@example([{"host_id": "h0", "alive": True}, {"host_id": "h0", "alive": False}])
@example([{"host_id": "h0", "alive": True}, {"host_id": "../../outside", "alive": True}])
@given(st.one_of(_entries(ROSTER_ENTRY), JSON_VALUES))
def test_roster(state, value):
    text = json.dumps(value)
    state.roster_path.write_text(text)
    try:
        network = state.load_network(Config())
    except SkyVaultError:
        return
    assert all(check_id(host.host_id) for host in network.hosts)
    state.save_roster(network)
    assert _canonical(state.roster_path.read_text()) == _canonical(text)


@PROPERTY
@example([1])
@example({"a": 1})
@example([{"skylink": "sia://AAAA"}])
@example([{"title": "T", "skylink": "sia://AAAA", "provider_id": "h0"}] * 2)
@given(st.one_of(_entries(CATALOG_ENTRY), JSON_VALUES))
def test_catalog(state, value):
    text = json.dumps(value)
    state.catalog_path.write_text(text)
    try:
        catalog = state.load_catalog()
    except SkyVaultError:
        return
    state.catalog_path.write_text("[]")
    for entry in catalog:
        state.add_catalog_entry(entry["title"], SkyLink(entry["skylink"]),
                                entry["provider_id"])
    assert _canonical(state.catalog_path.read_text()) == _canonical(text)
