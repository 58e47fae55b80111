"""Golden byte vectors: every canonical layout, pinned as hex.

Each vector comes from seeded keypairs, literal envelopes, a fixed clock
and difficulty 8, so the same code always yields the same bytes. A
change to any encoder that moves a single byte fails here. Sealing is
randomized, so where a record holds a sealed envelope the test swaps in
the literal ``ENVELOPE`` before encoding.
"""

import hashlib

import pytest

from skyvault.crypto import Envelope, digest, generate_keypair
from skyvault.ledger import (
    Block,
    Chain,
    Transaction,
    make_transaction,
    parse_chain,
    serialize_chain,
)
from skyvault.licensing import (
    ACTION_DOWNLOAD,
    ACTION_RELICENSE,
    ACTION_STREAM,
    KeyRules,
    License,
    Rights,
    SecretBlock,
    consumer_fingerprint,
    content_info_bytes,
)
from skyvault.storage import (
    FileManifest,
    SkyLink,
    StorageNetwork,
    build_manifest,
    fail_host,
    upload,
    verify_skylink,
)
from skyvault.wire import unpack_fields

NOW = 1_700_000_000
PROVIDER = generate_keypair(b"\x01" * 32)
CONSUMER = generate_keypair(b"\x02" * 32)
ENVELOPE = Envelope(ephemeral_public=bytes(range(32)), nonce=bytes(range(12)),
                    ciphertext=b"golden ciphertext")
CHUNK_SIZE = 1024
DATA = bytes((i * 7 + 3) % 256 for i in range(5000))
CONTENT_ID = digest(b"content")
LIMITED = KeyRules(NOW, NOW + 86_400, 5, False)
UNLIMITED = KeyRules(100, 200, None, True)

GOLDEN_ENVELOPE = (
    "00000020000102030405060708090a0b0c0d0e0f101112131415161718191a1b"
    "1c1d1e1f0000000c000102030405060708090a0b00000011676f6c64656e2063"
    "697068657274657874"
)

GOLDEN_CORE = (
    "0000002034398b85297bf7d9dfb59b8d511d8bbb44ab23e891570e4395e78714"
    "75fc8afb00000008000000000000138800000008000000000000040000000008"
    "000000000000000500000020ef36b783ffa16eaafc55032239d6e29a64150ac9"
    "f05e896a58e99e32a432fd3400000020c61480e9554ea109cdca3647c21c3f17"
    "a41660d27508ac8711b9fb93a2fc5d7800000020688df4527929994f6b902472"
    "51515732a0063dc49c94795bd6536951b2f8120f000000208c8ee6182d279c8e"
    "614504dd46af01bbac8394caa8b44dd8ca37edd7cb6e56ac00000020400f3ccd"
    "ac6d023f43f27ca09282e71285a49943f521751ada848f75173f6db8"
)

GOLDEN_MANIFEST = (
    "0000002034398b85297bf7d9dfb59b8d511d8bbb44ab23e891570e4395e78714"
    "75fc8afb00000008000000000000138800000008000000000000040000000008"
    "00000000000000050000004e00000008000000000000000000000020ef36b783"
    "ffa16eaafc55032239d6e29a64150ac9f05e896a58e99e32a432fd3400000008"
    "00000000000000030000000268300000000268310000000268330000004e0000"
    "0008000000000000000100000020c61480e9554ea109cdca3647c21c3f17a416"
    "60d27508ac8711b9fb93a2fc5d78000000080000000000000003000000026831"
    "0000000268330000000268340000004e00000008000000000000000200000020"
    "688df4527929994f6b90247251515732a0063dc49c94795bd6536951b2f8120f"
    "0000000800000000000000030000000268330000000268340000000268350000"
    "004e000000080000000000000003000000208c8ee6182d279c8e614504dd46af"
    "01bbac8394caa8b44dd8ca37edd7cb6e56ac0000000800000000000000030000"
    "000268340000000268350000000268300000004e000000080000000000000004"
    "00000020400f3ccdac6d023f43f27ca09282e71285a49943f521751ada848f75"
    "173f6db800000008000000000000000300000002683500000002683000000002"
    "68310000004900000020000102030405060708090a0b0c0d0e0f101112131415"
    "161718191a1b1c1d1e1f0000000c000102030405060708090a0b00000011676f"
    "6c64656e2063697068657274657874"
)

GOLDEN_CHUNK_RECORD = (
    "00000008000000000000000000000020ef36b783ffa16eaafc55032239d6e29a"
    "64150ac9f05e896a58e99e32a432fd3400000008000000000000000300000002"
    "6830000000026831000000026833"
)

GOLDEN_TX_BODY = (
    "000000206a3803d5f059902a1c6dafbc9ba4729212f7caac08634cc3ae76b275"
    "29f038270000002034750f98bd59fcfc946da45aaabe933be154a4b5094e1c4a"
    "bf42866505f3c97e00000020ed7002b439e9ac845f22357d822bac1444730fbd"
    "b6016d3ec9432297b9ec9f73000000202bb80d537b1da3e38bd30361aa855686"
    "bde0eacd7162fef6a25fe97bf527a25b00000008000000006553f100"
)

GOLDEN_TX = (
    "000000206a3803d5f059902a1c6dafbc9ba4729212f7caac08634cc3ae76b275"
    "29f038270000002034750f98bd59fcfc946da45aaabe933be154a4b5094e1c4a"
    "bf42866505f3c97e00000020ed7002b439e9ac845f22357d822bac1444730fbd"
    "b6016d3ec9432297b9ec9f73000000202bb80d537b1da3e38bd30361aa855686"
    "bde0eacd7162fef6a25fe97bf527a25b00000008000000006553f10000000040"
    "3b0d14735d08e05d2c01ea61d63b28a6449545d3843a74f6700948997d87453e"
    "c2b03d5b17d7e9ba9cbe49b3048122cef312aa8c3dfafa7ad848b2dce4d6270c"
    "00000020a57499b5b508110fa95d1b4494ede6190146732c031ea1283d64def4"
    "b4c950b2"
)

GOLDEN_HEADER = (
    "0000000800000000000000000000002000000000000000000000000000000000"
    "000000000000000000000000000000000000002050fb3e4c26ea8486ff6c764a"
    "4475d941bbc7532db77ef4646c57e6fa7a9bce3500000008000000006553f100"
    "000000080000000000000041"
)

GOLDEN_BLOCK = (
    "0000000800000000000000000000002000000000000000000000000000000000"
    "000000000000000000000000000000000000002050fb3e4c26ea8486ff6c764a"
    "4475d941bbc7532db77ef4646c57e6fa7a9bce3500000008000000006553f100"
    "0000000800000000000000410000002000e8189c4ce172b0ef6a6798584b5693"
    "2bbfcc61a81f3d1112862cf96f14672000000008000000000000000100000104"
    "000000206a3803d5f059902a1c6dafbc9ba4729212f7caac08634cc3ae76b275"
    "29f038270000002034750f98bd59fcfc946da45aaabe933be154a4b5094e1c4a"
    "bf42866505f3c97e00000020ed7002b439e9ac845f22357d822bac1444730fbd"
    "b6016d3ec9432297b9ec9f73000000202bb80d537b1da3e38bd30361aa855686"
    "bde0eacd7162fef6a25fe97bf527a25b00000008000000006553f10000000040"
    "3b0d14735d08e05d2c01ea61d63b28a6449545d3843a74f6700948997d87453e"
    "c2b03d5b17d7e9ba9cbe49b3048122cef312aa8c3dfafa7ad848b2dce4d6270c"
    "00000020a57499b5b508110fa95d1b4494ede6190146732c031ea1283d64def4"
    "b4c950b2"
)

GOLDEN_RULES_LIMITED = (
    "00000008000000006553f1000000000800000000655542800000000800000000"
    "00000005000000080000000000000000"
)

GOLDEN_RULES_UNLIMITED = (
    "0000000800000000000000640000000800000000000000c800000008ffffffff"
    "ffffffff000000080000000000000001"
)

GOLDEN_RIGHTS_ALL = (
    "00000008646f776e6c6f61640000000a72652d6c6963656e7365000000067374"
    "7265616d"
)

GOLDEN_RIGHTS_DEFAULT = "00000008646f776e6c6f61640000000673747265616d"

GOLDEN_LICENSE = (
    "00000010000102030405060708090a0b0c0d0e0f0000000c626f622d636f6e73"
    "756d6572000000208139770ea87d175f56a35466c34c7ecccb8d8a91b4ee37a2"
    "5df60f5b8fc9b39400000020ed7002b439e9ac845f22357d822bac1444730fbd"
    "b6016d3ec9432297b9ec9f730000004900000020000102030405060708090a0b"
    "0c0d0e0f101112131415161718191a1b1c1d1e1f0000000c0001020304050607"
    "08090a0b00000011676f6c64656e206369706865727465787400000030000000"
    "08000000006553f1000000000800000000655542800000000800000000000000"
    "050000000800000000000000000000001600000008646f776e6c6f6164000000"
    "0673747265616d000000202671d94c2ef5c0350adca6ad5da0c0ba4d7962a9cf"
    "f0f1f52785734c7cf6def400000008000000006553f10000000020e8426f2826"
    "6bfe52c68e974849f4007c3d47ae63275d04480207bbf3d69872f9"
)

GOLDEN_SECRET = (
    "00000020033d62a36d8cdbe4f11b355b11869def95d160b4dfc557dba5ff8fe4"
    "1a9b9e4d0000002097380187a878903ffe722b7bfd8d8ba92457ef77de0216cf"
    "e9261c72c2b8739700000008000000006553f10000000020bdf49c3c3882102f"
    "c017ffb661108c63a836d065888a4093994398cc55c2ea2f0000000c73747564"
    "696f2d7072696d650000004900000020000102030405060708090a0b0c0d0e0f"
    "101112131415161718191a1b1c1d1e1f0000000c000102030405060708090a0b"
    "00000011676f6c64656e206369706865727465787400000020e8426f28266bfe"
    "52c68e974849f4007c3d47ae63275d04480207bbf3d69872f9"
)

GOLDEN_CONTENT_INFO = (
    "0000000c476f6c64656e205469746c65000000317369613a2f2f70595f763346"
    "6f7963303363486969434a6f6a666261556244457447665752375155656a7a70"
    "7871425530"
)

GOLDEN_FRAGMENTS = {
    "h0": [
        "400f3ccdac6d023f43f27ca09282e71285a49943f521751ada848f75173f6db8",
        "8c8ee6182d279c8e614504dd46af01bbac8394caa8b44dd8ca37edd7cb6e56ac",
        "ef36b783ffa16eaafc55032239d6e29a64150ac9f05e896a58e99e32a432fd34",
    ],
    "h1": [
        "400f3ccdac6d023f43f27ca09282e71285a49943f521751ada848f75173f6db8",
        "c61480e9554ea109cdca3647c21c3f17a41660d27508ac8711b9fb93a2fc5d78",
        "ef36b783ffa16eaafc55032239d6e29a64150ac9f05e896a58e99e32a432fd34",
    ],
    "h2": [],
    "h3": [
        "688df4527929994f6b90247251515732a0063dc49c94795bd6536951b2f8120f",
        "c61480e9554ea109cdca3647c21c3f17a41660d27508ac8711b9fb93a2fc5d78",
        "ef36b783ffa16eaafc55032239d6e29a64150ac9f05e896a58e99e32a432fd34",
    ],
    "h4": [
        "688df4527929994f6b90247251515732a0063dc49c94795bd6536951b2f8120f",
        "8c8ee6182d279c8e614504dd46af01bbac8394caa8b44dd8ca37edd7cb6e56ac",
        "c61480e9554ea109cdca3647c21c3f17a41660d27508ac8711b9fb93a2fc5d78",
    ],
    "h5": [
        "400f3ccdac6d023f43f27ca09282e71285a49943f521751ada848f75173f6db8",
        "688df4527929994f6b90247251515732a0063dc49c94795bd6536951b2f8120f",
        "8c8ee6182d279c8e614504dd46af01bbac8394caa8b44dd8ca37edd7cb6e56ac",
    ],
}

GOLDEN_SKYLINK = "sia://pY_v3Foyc03cHiiCJojfbaUbDEtGfWR7QUejzpxqBU0"

GOLDEN_CHAIN_LENGTH = 912
GOLDEN_CHAIN_SHA256 = (
    "e459d225bd20ecf32bfbce36e7a59819d2b49cb6936d71a31aff51cdf09160ef")


# -- fixtures ----------------------------------------------------------------

@pytest.fixture(scope="module")
def uploaded():
    """Five chunks on six hosts with h2 down, so placement skips it."""
    network = StorageNetwork.with_hosts(6, replication_factor=3)
    fail_host(network, "h2")
    link, manifest = upload(DATA, network, PROVIDER, chunk_size=CHUNK_SIZE)
    return network, link, manifest


def sample_tx(salt: bytes = b"", timestamp: int = NOW) -> Transaction:
    return make_transaction(PROVIDER, CONSUMER.public_key,
                            digest(b"content" + salt), digest(b"secret" + salt),
                            timestamp)


@pytest.fixture(scope="module")
def chain():
    chain = Chain(difficulty_bits=8, clock=lambda: NOW)
    chain.submit(sample_tx(), PROVIDER.public_key)
    chain.mine()
    chain.submit(sample_tx(b" 2", NOW + 1), PROVIDER.public_key)
    chain.mine()
    return chain


def sample_license() -> License:
    lic = License(
        license_id=bytes(range(16)),
        consumer_id="bob-consumer",
        consumer_public_key=CONSUMER.public_key,
        content_id=CONTENT_ID,
        enveloped_content_key=ENVELOPE,
        key_rules=LIMITED,
        rights=Rights.default(),
        consumer_fingerprint=consumer_fingerprint("bob-consumer", CONTENT_ID),
        issued_at=NOW,
        license_hash=digest(b""),
    )
    lic.license_hash = lic.compute_hash()
    return lic


# -- crypto ------------------------------------------------------------------

def test_envelope():
    assert ENVELOPE.to_bytes().hex() == GOLDEN_ENVELOPE
    assert Envelope.from_bytes(bytes.fromhex(GOLDEN_ENVELOPE)) == ENVELOPE


# -- storage -----------------------------------------------------------------

def test_upload_skylink_and_core(uploaded):
    _, link, manifest = uploaded
    assert link.text == GOLDEN_SKYLINK
    assert manifest.core_bytes().hex() == GOLDEN_CORE
    assert link == SkyLink.from_digest(digest(bytes.fromhex(GOLDEN_CORE)))


def test_full_manifest(uploaded):
    _, _, manifest = uploaded
    pinned = manifest.replace(encrypted_file_key=ENVELOPE)
    assert pinned.to_bytes().hex() == GOLDEN_MANIFEST
    assert FileManifest.from_bytes(bytes.fromhex(GOLDEN_MANIFEST)) == pinned


def test_chunk_record(uploaded):
    _, _, manifest = uploaded
    record = manifest.chunk_records[0]
    assert record.host_ids == ("h0", "h1", "h3")
    full = manifest.replace(encrypted_file_key=ENVELOPE).to_bytes()
    assert unpack_fields(full)[4].hex() == GOLDEN_CHUNK_RECORD


def test_fragments_per_host(uploaded):
    network, _, _ = uploaded
    held = {host.host_id: sorted(key.hex() for key in host.fragments())
            for host in network.hosts}
    assert held == GOLDEN_FRAGMENTS


def test_builder_and_verifier_agree(uploaded):
    _, link, _ = uploaded
    built_link, built, _ = build_manifest(DATA, PROVIDER, CHUNK_SIZE)
    assert built_link == link
    assert built.core_bytes().hex() == GOLDEN_CORE
    assert verify_skylink(link, DATA, PROVIDER, chunk_size=CHUNK_SIZE)
    assert not verify_skylink(link, DATA, PROVIDER, chunk_size=CHUNK_SIZE * 2)


# -- ledger ------------------------------------------------------------------

def test_transaction():
    tx = sample_tx()
    assert tx.body_bytes().hex() == GOLDEN_TX_BODY
    assert tx.to_bytes().hex() == GOLDEN_TX
    assert tx.tx_id == digest(bytes.fromhex(GOLDEN_TX_BODY))
    assert Transaction.from_bytes(bytes.fromhex(GOLDEN_TX)) == tx


def test_block(chain):
    block = chain.blocks[0]
    assert block.header_bytes().hex() == GOLDEN_HEADER
    assert block.to_bytes().hex() == GOLDEN_BLOCK
    assert block.block_hash == digest(bytes.fromhex(GOLDEN_HEADER))
    assert Block.from_bytes(bytes.fromhex(GOLDEN_BLOCK)) == block


def test_chain_framing(chain):
    image = serialize_chain(chain)
    assert len(image) == GOLDEN_CHAIN_LENGTH
    assert hashlib.sha256(image).hexdigest() == GOLDEN_CHAIN_SHA256
    record = bytes.fromhex(GOLDEN_BLOCK)
    assert image.startswith(len(record).to_bytes(4, "big") + record
                            + hashlib.sha256(record).digest())
    assert parse_chain(image, difficulty_bits=8).blocks == chain.blocks


# -- licensing ---------------------------------------------------------------

def test_key_rules():
    assert LIMITED.to_bytes().hex() == GOLDEN_RULES_LIMITED
    assert UNLIMITED.to_bytes().hex() == GOLDEN_RULES_UNLIMITED
    assert KeyRules.from_bytes(bytes.fromhex(GOLDEN_RULES_UNLIMITED)) == UNLIMITED


def test_rights():
    every = Rights(frozenset({ACTION_STREAM, ACTION_DOWNLOAD, ACTION_RELICENSE}))
    assert every.to_bytes().hex() == GOLDEN_RIGHTS_ALL
    assert Rights.default().to_bytes().hex() == GOLDEN_RIGHTS_DEFAULT


def test_license_record():
    lic = sample_license()
    assert lic.canonical_bytes().hex() == GOLDEN_LICENSE
    assert License.from_canonical_bytes(bytes.fromhex(GOLDEN_LICENSE)) == lic


def test_secret_block():
    lic = sample_license()
    block = SecretBlock(
        block_hash=digest(b""),
        prev_public_hash=digest(b"tip"),
        time=NOW,
        auth_info=digest(b"auth"),
        provider_info="studio-prime",
        encrypted_content_info=ENVELOPE,
        license_info=lic.license_hash,
    )
    block = block.replace(block_hash=block.compute_hash())
    assert block.to_bytes().hex() == GOLDEN_SECRET
    assert SecretBlock.from_bytes(bytes.fromhex(GOLDEN_SECRET)) == block


def test_content_info():
    link = SkyLink(GOLDEN_SKYLINK)
    assert content_info_bytes("Golden Title", link).hex() == GOLDEN_CONTENT_INFO
