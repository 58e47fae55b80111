"""The value types' shared base, ``wire.Record``: construction, equality,
hashing, frozenness, ``replace`` and ``repr``, as ``@dataclass`` gave them."""

import pytest

import skyvault.cli  # noqa: F401  (defines every value type)
from skyvault.crypto import Credential, Digest, KeyPair, generate_keypair, seal
from skyvault.errors import BadConfig, InvalidRules
from skyvault.hls import (Rendition, Segment, master_playlist, package,
                          validate_media_playlist)
from skyvault.identity import Account, Challenge, SessionToken
from skyvault.ledger import Block, Transaction
from skyvault.licensing import (DenyReason, Decision, KeyRules, License, PurchaseResult,
                                Rights, SecretBlock)
from skyvault.state import Config, StateDirectory, World
from skyvault.storage import ChunkRecord, FileManifest, SkyLink
from skyvault.wire import Record

D = Digest(bytes(range(32)))
ENVELOPE = seal(generate_keypair().public_key, b"content key")
PACKAGE = package(bytes(5000), bytes(16), segment_bytes=2048)
TX = Transaction(D, D, D, D, 7, b"signature", D)
LICENSE = License(b"\x01" * 16, "alice", b"k" * 32, D, ENVELOPE, KeyRules(0, 10),
                  Rights(frozenset({"stream"})), D, 5, D)
CHUNK = ChunkRecord(0, D, ("h0", "h1"))

VALUES = [
    D,
    KeyPair(b"p" * 32, b"s" * 32),
    ENVELOPE,
    Credential("alice", D),
    PACKAGE.segments[0],
    PACKAGE,
    Rendition(800_000, "media.m3u8"),
    master_playlist([Rendition(800_000, "media.m3u8")]),
    validate_media_playlist(PACKAGE.media_playlist),
    Account("alice", D, b"k" * 32, 1),
    Challenge(b"c" * 16, "alice", b"n" * 32, ENVELOPE, 1),
    SessionToken(b"token", "alice", 2),
    TX,
    Block(0, bytes(32), D, 1, 0, (TX,), D),
    Decision.deny(DenyReason.USES_EXHAUSTED),
    KeyRules(0, 10, max_uses=3, offline_allowed=True),
    Rights(frozenset({"stream", "download"})),
    LICENSE,
    SecretBlock(D, D, 3, D, "studio", ENVELOPE, D),
    PurchaseResult(LICENSE, ENVELOPE, D, TX),
    Config(),
    World(StateDirectory("state"), Config(), None, None, None),
    CHUNK,
    FileManifest(D, 10, 4, (CHUNK,), ENVELOPE),
    SkyLink("sia://AAAA"),
]
MUTABLE = (License, World)


def test_every_value_type_is_covered():
    assert {type(value) for value in VALUES} == {
        cls for cls in Record.__subclasses__() if cls.__module__.startswith("skyvault.")}


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_value_type(value):
    copy = value.replace()
    assert copy == value and copy is not value
    assert repr(copy) == repr(value)
    field = next(iter(value.FIELDS))
    if isinstance(value, MUTABLE):
        setattr(copy, field, getattr(value, field))
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        if isinstance(value, PurchaseResult):  # it holds a License
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
        else:
            assert hash(copy) == hash(value)
    assert hasattr(value, "__dict__") is not isinstance(value, (Challenge, SessionToken))


def test_construction():
    rules = KeyRules(1, 2)
    assert rules == KeyRules(not_before=1, not_after=2) == KeyRules(1, not_after=2,
                                                                     max_uses=None)
    assert (rules.max_uses, rules.offline_allowed) == (None, False)
    assert LICENSE.uses_consumed == 0
    for args, kwargs in [((1,), {}), ((1, 2, 3, False, 5), {}), ((1, 2), {"not_before": 1}),
                         ((1, 2), {"uses": 3})]:
        with pytest.raises(TypeError):
            KeyRules(*args, **kwargs)


def test_replace_checks_like_a_new_instance():
    assert KeyRules(1, 2).replace(not_after=5) == KeyRules(1, 5)
    with pytest.raises(InvalidRules):
        KeyRules(1, 2).replace(not_after=0)
    with pytest.raises(BadConfig):
        Config().replace(host_count=1)
    with pytest.raises(TypeError):
        D.replace(hex="00")


def test_equality_needs_the_exact_class():
    class Other(Record):
        value: bytes

    assert Other(D.value) != D and D != Other(D.value)
    assert Segment("a", b"") != Segment("a", b"x")


def test_repr():
    assert repr(Rendition(1, "m.m3u8")) == "Rendition(bandwidth=1, media_playlist_name='m.m3u8')"


def test_config_fields():
    assert list(Config.FIELDS) == ["replication_factor", "chunk_size", "pow_difficulty",
                                   "challenge_ttl", "session_ttl", "host_count",
                                   "segment_bytes"]
    assert Config() == Config(**Config.FIELDS)
