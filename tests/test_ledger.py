"""Ledger: transaction admission, proof-of-work mining, chain verification."""


import pytest

from skyvault.crypto import Digest, digest, generate_keypair
from skyvault.errors import (
    BadSignature,
    ChainCorrupt,
    DuplicateTransaction,
    MalformedTransaction,
    NothingToMine,
    StaleTimestamp,
    UnknownTransaction,
)
from skyvault.ledger import (
    GENESIS_PREV_HASH,
    Block,
    Chain,
    Transaction,
    append_block,
    compute_tx_root,
    confirm_secret,
    leading_zero_bits,
    load_chain,
    make_transaction,
    parse_chain,
    serialize_chain,
)
from skyvault.wire import pack_fields, u64, unpack_fields

PROVIDER = generate_keypair(bytes(range(32)))
CONSUMER = generate_keypair(bytes(range(32, 64)))


def sample_tx(clock, salt: bytes = b"", provider=PROVIDER) -> Transaction:
    return make_transaction(
        provider=provider,
        consumer_public=CONSUMER.public_key,
        content_commitment=digest(b"content info" + salt),
        secret_commitment=digest(b"secret block bytes" + salt),
        timestamp=int(clock()),
    )


@pytest.fixture
def chain(clock):
    return Chain(difficulty_bits=8, clock=clock)


class TestLeadingZeroBits:
    def test_vectors(self):
        assert leading_zero_bits(b"") == 0
        assert leading_zero_bits(b"\x80") == 0
        assert leading_zero_bits(b"\x01") == 7
        assert leading_zero_bits(b"\x00") == 8
        assert leading_zero_bits(b"\x00\x20") == 10
        assert leading_zero_bits(b"\x00\x00\xff") == 16

    def test_matches_counting_bit_by_bit(self):
        # Every 2-byte value, and 32-byte hashes with 0-255 leading zeros.
        cases = [value.to_bytes(2, "big") for value in range(1 << 16)]
        cases += [(1 << shift).to_bytes(32, "big") for shift in range(256)]
        for data in cases:
            bits = "".join(f"{byte:08b}" for byte in data)
            assert leading_zero_bits(data) == len(bits) - len(bits.lstrip("0")), data


class TestSubmit:
    def test_accepted_into_pending(self, chain, clock):
        tx = sample_tx(clock)
        tx_id = chain.submit(tx, PROVIDER.public_key)
        assert tx_id == tx.tx_id
        assert chain.pending == [tx]

    def test_duplicate_rejected(self, chain, clock):
        tx = sample_tx(clock)
        chain.submit(tx, PROVIDER.public_key)
        with pytest.raises(DuplicateTransaction):
            chain.submit(tx, PROVIDER.public_key)

    def test_duplicate_rejected_after_mining(self, chain, clock):
        tx = sample_tx(clock)
        chain.submit(tx, PROVIDER.public_key)
        chain.mine()
        with pytest.raises(DuplicateTransaction):
            chain.submit(tx, PROVIDER.public_key)

    def test_wrong_provider_key_rejected(self, chain, clock):
        tx = sample_tx(clock)
        other = generate_keypair()
        with pytest.raises(BadSignature):
            chain.submit(tx, other.public_key)

    def test_forged_signature_rejected(self, chain, clock):
        tx = sample_tx(clock)
        forged = tx.replace(signature=bytes(64))
        with pytest.raises(BadSignature):
            chain.submit(forged, PROVIDER.public_key)

    def test_stale_timestamps_rejected(self, chain, clock):
        now = int(clock())
        for bad in (now - 901, now + 901):
            tx = make_transaction(PROVIDER, CONSUMER.public_key,
                                  digest(b"c"), digest(b"s"), bad)
            with pytest.raises(StaleTimestamp):
                chain.submit(tx, PROVIDER.public_key)
        # Boundary: exactly ±900 is still fresh.
        tx = make_transaction(PROVIDER, CONSUMER.public_key,
                              digest(b"c"), digest(b"s"), now - 900)
        chain.submit(tx, PROVIDER.public_key)

    def test_tampered_tx_id_rejected(self, chain, clock):
        tx = sample_tx(clock)
        bad = tx.replace(tx_id=digest(b"something else"))
        with pytest.raises(MalformedTransaction):
            chain.submit(bad, PROVIDER.public_key)

    def test_every_bit_flip_rejected(self, chain, clock):
        # Oracle: each single-bit mutation of the serialized transaction
        # must fail decoding or fail admission; none may be accepted.
        tx = sample_tx(clock)
        blob = tx.to_bytes()
        for bit in range(len(blob) * 8):
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            try:
                parsed = Transaction.from_bytes(bytes(mutated))
            except ValueError:
                continue
            with pytest.raises((BadSignature, MalformedTransaction, StaleTimestamp)):
                chain.submit(parsed, PROVIDER.public_key)


class TestMining:
    def test_difficulty_8_first_byte_zero(self, chain, clock):
        chain.submit(sample_tx(clock), PROVIDER.public_key)
        block = chain.mine()
        assert block.block_hash.value[0] == 0x00

    def test_nothing_to_mine(self, chain):
        with pytest.raises(NothingToMine):
            chain.mine()

    def test_pending_drained_fifo(self, chain, clock):
        txs = [sample_tx(clock, salt=bytes([i])) for i in range(3)]
        for tx in txs:
            chain.submit(tx, PROVIDER.public_key)
        block = chain.mine()
        assert chain.pending == []
        assert block.tx_ids == tuple(tx.tx_id for tx in txs)

    def test_genesis_prev_hash_is_zeroes(self, chain, clock):
        chain.submit(sample_tx(clock), PROVIDER.public_key)
        block = chain.mine()
        assert block.height == 0
        assert block.prev_hash == GENESIS_PREV_HASH

    def test_linkage_and_heights(self, chain, clock):
        for i in range(3):
            chain.submit(sample_tx(clock, salt=bytes([i])), PROVIDER.public_key)
            chain.mine()
        assert [b.height for b in chain.blocks] == [0, 1, 2]
        for prev, cur in zip(chain.blocks, chain.blocks[1:]):
            assert cur.prev_hash == prev.block_hash.value

    def test_mining_terminates_quickly(self, chain, clock):
        # Expected 256 trials at 8 bits; enormous headroom below 10**6.
        chain.submit(sample_tx(clock), PROVIDER.public_key)
        block = chain.mine()
        assert block.nonce < 10**6

    @pytest.mark.parametrize("bits", [-1, 257])
    def test_unmeetable_difficulty_refused(self, bits):
        with pytest.raises(ValueError, match="difficulty"):
            Chain(difficulty_bits=bits)

    def test_tip_hash_tracks_latest_block(self, chain, clock):
        assert chain.tip_hash() == GENESIS_PREV_HASH
        chain.submit(sample_tx(clock), PROVIDER.public_key)
        block = chain.mine()
        assert chain.tip_hash() == block.block_hash.value


def mined_chain(clock, n_blocks: int = 5) -> Chain:
    chain = Chain(difficulty_bits=8, clock=clock)
    for i in range(n_blocks):
        chain.submit(sample_tx(clock, salt=bytes([i])), PROVIDER.public_key)
        chain.mine()
    return chain


class TestVerify:
    def test_fresh_chain_ok(self, clock):
        assert mined_chain(clock).verify() is None

    def test_empty_chain_ok(self, chain):
        assert chain.verify() is None

    def test_mutated_tx_id_located(self, clock):
        chain = mined_chain(clock)
        block = chain.blocks[3]
        bad_tx = block.transactions[0].replace(tx_id=digest(b"mutant"))
        chain.blocks[3] = block.replace(transactions=(bad_tx,))
        assert chain.verify() == 3

    def test_swapped_blocks_located(self, clock):
        chain = mined_chain(clock)
        chain.blocks[2], chain.blocks[3] = chain.blocks[3], chain.blocks[2]
        assert chain.verify() == 2

    def test_bumped_nonce_located(self, clock):
        chain = mined_chain(clock)
        chain.blocks[1] = chain.blocks[1].replace(nonce=chain.blocks[1].nonce + 1)
        assert chain.verify() == 1

    def test_rewritten_prev_hash_located(self, clock):
        chain = mined_chain(clock)
        chain.blocks[4] = chain.blocks[4].replace(prev_hash=b"\xaa" * 32)
        assert chain.verify() == 4


class TestInclusionAndCommitment:
    def test_inclusion_positions(self, chain, clock):
        txs = [sample_tx(clock, salt=bytes([i])) for i in range(3)]
        for tx in txs:
            chain.submit(tx, PROVIDER.public_key)
        chain.mine()
        assert chain.find(txs[0].tx_id) == (0, 0)
        assert chain.find(txs[2].tx_id) == (0, 2)

    def test_unknown_tx(self, chain):
        with pytest.raises(UnknownTransaction):
            chain.find(digest(b"ghost"))

    def test_pending_is_not_included(self, chain, clock):
        tx = sample_tx(clock)
        chain.submit(tx, PROVIDER.public_key)
        with pytest.raises(UnknownTransaction):
            chain.find(tx.tx_id)

    def test_confirm_secret_binds_exact_bytes(self, chain, clock, rng):
        secret = rng.randbytes(200)
        tx = make_transaction(PROVIDER, CONSUMER.public_key,
                              digest(b"info"), digest(secret), int(clock()))
        chain.submit(tx, PROVIDER.public_key)
        chain.mine()
        assert confirm_secret(chain, tx.tx_id, secret)
        # Commitment binding: 10**3 random non-matching byte strings.
        for _ in range(1000):
            other = rng.randbytes(rng.randint(0, 300))
            if other != secret:
                assert not confirm_secret(chain, tx.tx_id, other)
        flipped = bytearray(secret)
        flipped[0] ^= 1
        assert not confirm_secret(chain, tx.tx_id, bytes(flipped))


class TestSerialization:
    def test_transaction_round_trip(self, clock):
        tx = sample_tx(clock)
        assert Transaction.from_bytes(tx.to_bytes()) == tx

    def test_block_round_trip(self, clock):
        chain = mined_chain(clock, n_blocks=2)
        for block in chain.blocks:
            assert Block.from_bytes(block.to_bytes()) == block

    def test_chain_file_round_trip(self, clock, tmp_path):
        chain = mined_chain(clock)
        path = tmp_path / "chain.log"
        for block in chain.blocks:
            append_block(path, block)
        again = load_chain(path, difficulty_bits=8, clock=clock)
        assert again.blocks == chain.blocks
        assert again.verify() is None
        assert serialize_chain(again) == path.read_bytes()

    def test_missing_file_is_empty_chain(self, tmp_path, clock):
        chain = load_chain(tmp_path / "absent.log", clock=clock)
        assert chain.blocks == []

    def test_replay_blocked_after_reload(self, clock, tmp_path):
        chain = Chain(difficulty_bits=8, clock=clock)
        tx = sample_tx(clock)
        chain.submit(tx, PROVIDER.public_key)
        block = chain.mine()
        path = tmp_path / "chain.log"
        append_block(path, block)
        again = load_chain(path, difficulty_bits=8, clock=clock)
        with pytest.raises(DuplicateTransaction):
            again.submit(tx, PROVIDER.public_key)

    def test_truncated_file_rejected(self, clock):
        data = serialize_chain(mined_chain(clock, n_blocks=2))
        with pytest.raises(ChainCorrupt):
            parse_chain(data[:-1])

    def test_checksum_mismatch_rejected(self, clock):
        data = bytearray(serialize_chain(mined_chain(clock, n_blocks=2)))
        data[-1] ^= 0xFF
        with pytest.raises(ChainCorrupt):
            parse_chain(bytes(data))

    def test_trailing_garbage_rejected(self, clock):
        data = serialize_chain(mined_chain(clock, n_blocks=1))
        with pytest.raises(ChainCorrupt):
            parse_chain(data + b"\x00\x00")

    def test_signature_flip_caught_by_checksum(self, clock):
        # verify() ignores signatures; the record checksum must not.
        chain = mined_chain(clock, n_blocks=1)
        data = bytearray(serialize_chain(chain))
        sig = chain.blocks[0].transactions[0].signature
        offset = bytes(data).find(sig)
        assert offset > 0
        data[offset] ^= 0x01
        with pytest.raises(ChainCorrupt):
            parse_chain(bytes(data))

    def test_stale_tx_id_rejected_behind_good_checksum(self, clock):
        tx = sample_tx(clock)
        forged = tx.replace(timestamp=tx.timestamp + 1)
        with pytest.raises(ValueError, match="transaction id"):
            Transaction.from_bytes(forged.to_bytes())
        block = mined_chain(clock, n_blocks=1).blocks[0]
        forged_block = block.replace(transactions=(forged,))
        with pytest.raises(ChainCorrupt, match="transaction id"):
            parse_chain(serialize_chain(Chain(blocks=[forged_block])))

    def test_stale_tx_root_rejected_behind_good_checksum(self, clock):
        block = mined_chain(clock, n_blocks=1).blocks[0]
        forged = block.replace(tx_root=digest(b"another root"))
        forged = forged.replace(block_hash=digest(forged.header_bytes()))
        with pytest.raises(ChainCorrupt, match="tx_root"):
            parse_chain(serialize_chain(Chain(blocks=[forged])))

    def test_short_digest_field_rejected_behind_good_checksum(self, clock):
        # A 31-byte content commitment, under a tx_id, tx_root, block hash
        # and checksum that all recompute.
        body = unpack_fields(sample_tx(clock).body_bytes())
        body[2] = body[2][:31]
        tx_id = digest(pack_fields(body))
        tx_record = pack_fields(body + [b"signature", tx_id.value])
        header = pack_fields([u64(0), GENESIS_PREV_HASH, digest(tx_id.value).value,
                              u64(int(clock())), u64(0)])
        record = header + pack_fields([digest(header).value, u64(1), tx_record])
        image = len(record).to_bytes(4, "big") + record + digest(record).value
        with pytest.raises(ChainCorrupt, match="field sizes"):
            parse_chain(image)

    def test_height_and_tip_without_building(self, clock, tmp_path):
        chain = mined_chain(clock, n_blocks=3)
        path = tmp_path / "chain.log"
        for block in chain.blocks:
            append_block(path, block)
        loaded = load_chain(path, difficulty_bits=8, clock=clock)
        # Read before the blocks are built, then against the built blocks.
        assert (loaded.height(), loaded.tip_hash()) == (3, chain.tip_hash())
        tx = sample_tx(clock, salt=b"next")
        for each in (chain, loaded):
            each.submit(tx, PROVIDER.public_key)
        assert loaded.mine() == chain.mine()
        assert loaded.blocks == chain.blocks
        assert loaded.height() == len(loaded.blocks) == 4
        assert loaded.tip_hash() == loaded.blocks[-1].block_hash.value

    def test_stale_block_hash_rejected_behind_good_checksum(self, clock):
        block = mined_chain(clock, n_blocks=1).blocks[0]
        forged = block.replace(nonce=block.nonce + 1)
        with pytest.raises(ValueError, match="block hash"):
            Block.from_bytes(forged.to_bytes())
        with pytest.raises(ChainCorrupt, match="block hash"):
            parse_chain(serialize_chain(Chain(blocks=[forged])))

    def test_tx_root_covers_order(self, clock):
        a, b = digest(b"a"), digest(b"b")
        assert compute_tx_root([a, b]) != compute_tx_root([b, a])
