"""Public ledger: commitment-carrying transactions, proof-of-work blocks.

The chain stores no identities, licenses, or keys: a transaction holds
key fingerprints (digests of public keys) and two commitments, one to
the published content info and one to the consumer's secret block. The
consumer can later prove their secret block is the committed one
(``confirm_secret``) without the chain ever having seen it.

Canonical byte layouts (field framing per :mod:`skyvault.wire`):

* transaction body (signed, and hashed into tx_id):
  ``consumer_key_fp, provider_key_fp, content_commitment,
  secret_commitment, u64(timestamp)``;
* transaction record: body fields + ``signature, tx_id``;
* block header (hashed into block_hash): ``u64(height), prev_hash,
  tx_root, u64(timestamp), u64(nonce)``;
* block record: header fields + ``block_hash, u64(n_txs),
  transaction_record...``; tx_root = digest of the concatenated raw
  tx_id octets;
* chain file: per block, ``u32 length ‖ block record ‖ sha256(record)``.
  The trailing checksum covers signature octets, which chain
  verification itself never re-checks, so any bit flip on disk is
  caught either at load or by verify().

Decoding a record is two steps: a check and a build. The check refuses
a record unless its framing is strict, each digest field is 32 bytes and
each u64 field 8, and its tx_ids, tx_root and block_hash recompute; it
keeps the record's fields. The build turns checked fields into a
``Block`` and its ``Transaction``s and checks nothing more.
``Block.from_bytes`` is both steps. Loading a chain file checks every
record (with its length and checksum) and keeps only the checked fields,
the height, the tip hash and the set of seen tx ids: any defect fails the
load as ``ChainCorrupt``; ``verify`` reuses the checked fields. The
``Block``s are built the first time ``Chain.blocks`` is read (``find``,
``serialize_chain``); no other method builds one.
"""

from __future__ import annotations

import time
from hashlib import sha256
from typing import Callable, Optional

from .crypto import DIGEST_SIZE, Digest, KeyPair, digest, sign, verify
from .errors import (
    BadSignature,
    ChainCorrupt,
    DuplicateTransaction,
    MalformedTransaction,
    NothingToMine,
    StaleTimestamp,
    UnknownTransaction,
)
from .wire import Record, framed_size, pack_fields, read_u64, u64, unpack_fields

DEFAULT_DIFFICULTY_BITS = 8
# No SHA-256 output has more leading zero bits: a higher target is never met.
MAX_DIFFICULTY_BITS = 8 * DIGEST_SIZE
TIMESTAMP_TOLERANCE = 900
GENESIS_PREV_HASH = b"\x00" * 32

_RECORD_CHECKSUM_SIZE = 32
# Byte sizes of a transaction body's fields: four digests and a u64.
_TX_BODY_SIZES = (DIGEST_SIZE,) * 4 + (8,)
# Byte sizes of a block's height, prev_hash, tx_root, timestamp, nonce and
# block_hash fields.
_BLOCK_SIZES = (8, DIGEST_SIZE, DIGEST_SIZE, 8, 8, DIGEST_SIZE)


def leading_zero_bits(data: bytes) -> int:
    return 8 * len(data) - int.from_bytes(data, "big").bit_length()


class Transaction(Record):
    consumer_key_fingerprint: Digest
    provider_key_fingerprint: Digest
    content_commitment: Digest
    secret_commitment: Digest
    timestamp: int
    signature: bytes
    tx_id: Digest

    def body_bytes(self) -> bytes:
        return pack_fields([
            self.consumer_key_fingerprint.value,
            self.provider_key_fingerprint.value,
            self.content_commitment.value,
            self.secret_commitment.value,
            u64(self.timestamp),
        ])

    def to_bytes(self) -> bytes:
        return self.body_bytes() + pack_fields([self.signature, self.tx_id.value])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Transaction":
        return _build_transaction(_check_transaction(data))


def _check_transaction(data: bytes) -> list[bytes]:
    """The fields of a transaction record whose framing, field sizes and
    tx_id check out; ``ValueError`` otherwise."""
    fields = unpack_fields(data, expected=7)
    sizes = tuple(map(len, fields))
    if sizes[:5] != _TX_BODY_SIZES or sizes[6] != DIGEST_SIZE:
        raise ValueError(f"transaction field sizes {sizes} do not fit the layout")
    # The body is the record's own first five framed fields: strict
    # framing makes those bytes the ones body_bytes() would rebuild.
    if sha256(data[:framed_size(fields[:5])]).digest() != fields[6]:
        raise ValueError("transaction id does not recompute")
    return fields


def _build_transaction(fields: list[bytes]) -> Transaction:
    """The transaction of fields that ``_check_transaction`` returned."""
    return Transaction(
        consumer_key_fingerprint=Digest(fields[0]),
        provider_key_fingerprint=Digest(fields[1]),
        content_commitment=Digest(fields[2]),
        secret_commitment=Digest(fields[3]),
        timestamp=read_u64(fields[4]),
        signature=fields[5],
        tx_id=Digest(fields[6]),
    )


def make_transaction(provider: KeyPair, consumer_public: bytes,
                     content_commitment: Digest, secret_commitment: Digest,
                     timestamp: int) -> Transaction:
    """Build and sign a transaction; identities appear only as key digests."""
    unsigned = Transaction(
        consumer_key_fingerprint=digest(consumer_public),
        provider_key_fingerprint=digest(provider.public_key),
        content_commitment=content_commitment,
        secret_commitment=secret_commitment,
        timestamp=timestamp,
        signature=b"",
        tx_id=Digest(b"\x00" * 32),
    )
    body = unsigned.body_bytes()
    return unsigned.replace(signature=sign(provider.private_key, body), tx_id=digest(body))


class Block(Record):
    height: int
    prev_hash: bytes
    tx_root: Digest
    timestamp: int
    nonce: int
    transactions: tuple[Transaction, ...]
    block_hash: Digest

    def header_bytes(self) -> bytes:
        return block_header_bytes(self.height, self.prev_hash, self.tx_root,
                                  self.timestamp, self.nonce)

    def to_bytes(self) -> bytes:
        return self.header_bytes() + pack_fields(
            [self.block_hash.value, u64(len(self.transactions))]
            + [tx.to_bytes() for tx in self.transactions])

    @classmethod
    def from_bytes(cls, data: bytes) -> "Block":
        return _build_block(_check_block(data))


# A checked block record: its six header and hash fields, then the
# fields of each of its transactions.
_CheckedBlock = tuple[list[bytes], list[list[bytes]]]


def _check_block(data: bytes) -> _CheckedBlock:
    """The fields of a block record whose framing, field sizes, tx_ids,
    tx_root and block hash check out; ``ValueError`` otherwise. The one
    check of a block record, for ``Block.from_bytes`` and the loader.

    It compares raw octets, so it hashes with ``sha256`` directly and
    builds no ``Digest``."""
    fields = unpack_fields(data)
    if len(fields) < 7:
        raise ValueError("block record too short")
    n_txs = read_u64(fields[6])
    if len(fields) != 7 + n_txs:
        raise ValueError("block transaction count mismatch")
    txs = [_check_transaction(blob) for blob in fields[7:]]
    sizes = tuple(map(len, fields[:6]))
    if sizes != _BLOCK_SIZES:
        raise ValueError(f"block field sizes {sizes} do not fit the layout")
    if _raw_tx_root(tx[6] for tx in txs) != fields[2]:
        raise ValueError("block tx_root does not recompute")
    # As for a transaction body: the header is the first five fields.
    if sha256(data[:framed_size(fields[:5])]).digest() != fields[5]:
        raise ValueError("block hash does not recompute")
    return fields[:6], txs


def _build_block(checked: _CheckedBlock) -> Block:
    """The block of fields that ``_check_block`` returned."""
    header, txs = checked
    return Block(
        height=read_u64(header[0]),
        prev_hash=header[1],
        tx_root=Digest(header[2]),
        timestamp=read_u64(header[3]),
        nonce=read_u64(header[4]),
        transactions=tuple(map(_build_transaction, txs)),
        block_hash=Digest(header[5]),
    )


def block_header_bytes(height: int, prev_hash: bytes, tx_root: Digest,
                       timestamp: int, nonce: int) -> bytes:
    return pack_fields([u64(height), prev_hash, tx_root.value,
                        u64(timestamp), u64(nonce)])


def compute_tx_root(tx_ids) -> Digest:
    return Digest(_raw_tx_root(tx_id.value for tx_id in tx_ids))


def _raw_tx_root(raw_tx_ids) -> bytes:
    """SHA-256 of the concatenated raw tx_id octets."""
    return sha256(b"".join(raw_tx_ids)).digest()


class Chain:
    """Single-node chain: one writer at a time, read-only verification.

    A chain starts empty; ``mine`` and ``load_chain`` add its blocks.
    ``blocks`` is the mined history; ``pending`` holds admitted
    transactions awaiting the next block, drained FIFO by mine.
    A loaded chain keeps its records as checked fields (``_unbuilt``)
    until ``blocks`` is first read.
    """

    def __init__(self, difficulty_bits: int = DEFAULT_DIFFICULTY_BITS,
                 clock: Callable[[], float] = time.time):
        if not 0 <= difficulty_bits <= MAX_DIFFICULTY_BITS:
            raise ValueError(f"difficulty must be in 0..{MAX_DIFFICULTY_BITS}")
        self.difficulty_bits = difficulty_bits
        self.clock = clock
        self._unbuilt: list[_CheckedBlock] = []  # the oldest blocks, not built yet
        self._blocks: list[Block] = []
        self.pending: list[Transaction] = []
        self._seen: set[bytes] = set()

    @property
    def blocks(self) -> list[Block]:
        """The mined history, oldest first; loaded blocks are built here,
        once, on the first read."""
        if self._unbuilt:
            self._blocks[:0] = map(_build_block, self._unbuilt)
            self._unbuilt = []
        return self._blocks

    def tip_hash(self) -> bytes:
        if self._blocks:
            return self._blocks[-1].block_hash.value
        if self._unbuilt:
            return self._unbuilt[-1][0][5]  # the newest record's block_hash
        return GENESIS_PREV_HASH

    def height(self) -> int:
        return len(self._unbuilt) + len(self._blocks)

    def submit(self, tx: Transaction, provider_public: bytes) -> Digest:
        """Admit to pending after signature, freshness, and replay checks."""
        body = tx.body_bytes()
        if digest(body) != tx.tx_id:
            raise MalformedTransaction("transaction id does not recompute")
        if digest(provider_public) != tx.provider_key_fingerprint:
            raise BadSignature("provider key does not match fingerprint")
        if not verify(provider_public, body, tx.signature):
            raise BadSignature("provider signature does not verify")
        now = int(self.clock())
        if abs(tx.timestamp - now) > TIMESTAMP_TOLERANCE:
            raise StaleTimestamp(
                f"timestamp {tx.timestamp} outside ±{TIMESTAMP_TOLERANCE}s of {now}")
        if tx.tx_id.value in self._seen or any(
                p.tx_id == tx.tx_id for p in self.pending):
            raise DuplicateTransaction(f"tx {tx.tx_id.hex} already submitted")
        self.pending.append(tx)
        return tx.tx_id

    def mine(self) -> Block:
        """Drain pending into a new block; scan nonces until difficulty is met."""
        if not self.pending:
            raise NothingToMine("no pending transactions")
        txs = tuple(self.pending)
        self.pending.clear()
        height = self.height()
        prev_hash = self.tip_hash()
        tx_root = compute_tx_root(tx.tx_id for tx in txs)
        timestamp = int(self.clock())
        # Raw octets, as in _check_block: no Digest for each nonce tried.
        for nonce in range(1 << 64):
            block_hash = sha256(block_header_bytes(
                height, prev_hash, tx_root, timestamp, nonce)).digest()
            if leading_zero_bits(block_hash) >= self.difficulty_bits:
                break
        else:
            raise RuntimeError("nonce space exhausted")
        block = Block(height, prev_hash, tx_root, timestamp, nonce,
                      txs, Digest(block_hash))
        self._blocks.append(block)
        self._seen.update(tx.tx_id.value for tx in txs)
        return block

    def verify(self) -> Optional[int]:
        """None when every block checks out, else the first bad height.

        A loaded record passed ``_check_block`` at load; a block built or
        mined in memory is checked here, from its bytes. Over those checked
        fields, per block: contiguous height, linkage to the previous hash
        and difficulty. Builds no block; needs no secrets or signatures.
        """
        prev_hash = GENESIS_PREV_HASH
        for i, header in enumerate(self._checked_headers()):
            if (header is None or read_u64(header[0]) != i or header[1] != prev_hash
                    or leading_zero_bits(header[5]) < self.difficulty_bits):
                return i
            prev_hash = header[5]
        return None

    def _checked_headers(self):
        """Each block's header and hash fields as ``_check_block`` returns
        them, oldest first; None for a block whose record fails it."""
        for header, _ in self._unbuilt:
            yield header
        for block in self._blocks:
            try:
                yield _check_block(block.to_bytes())[0]
            except ValueError:
                yield None

    def find(self, tx_id: Digest) -> tuple[int, int]:
        """(height, position) of a mined transaction."""
        for block in self.blocks:
            for position, tx in enumerate(block.transactions):
                if tx.tx_id == tx_id:
                    return block.height, position
        raise UnknownTransaction(f"tx {tx_id.hex} not on chain")

    def transaction(self, tx_id: Digest) -> Transaction:
        height, position = self.find(tx_id)
        return self.blocks[height].transactions[position]


def confirm_secret(chain: Chain, tx_id: Digest, secret_block_bytes: bytes) -> bool:
    """True iff these exact octets are the ones committed on chain."""
    tx = chain.transaction(tx_id)
    return digest(secret_block_bytes) == tx.secret_commitment


def serialize_chain(chain: Chain) -> bytes:
    """The full append-only file image: checksummed block records."""
    return b"".join(_frame_record(block.to_bytes()) for block in chain.blocks)


def append_block(path, block: Block):
    with open(path, "ab") as handle:
        handle.write(_frame_record(block.to_bytes()))


def load_chain(path, difficulty_bits: int = DEFAULT_DIFFICULTY_BITS,
               clock: Callable[[], float] = time.time) -> Chain:
    """Cold-load a chain file. Every record's length, checksum, framing,
    field sizes, tx_ids, tx_root and block hash are checked here, and any
    defect is ``ChainCorrupt``; the ``Block``s are built on the first
    read of ``Chain.blocks``. A missing file is the empty chain."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return Chain(difficulty_bits=difficulty_bits, clock=clock)
    return parse_chain(data, difficulty_bits=difficulty_bits, clock=clock)


def parse_chain(data: bytes, difficulty_bits: int = DEFAULT_DIFFICULTY_BITS,
                clock: Callable[[], float] = time.time) -> Chain:
    """The chain of a chain file's bytes, checked as ``load_chain`` says."""
    chain = Chain(difficulty_bits=difficulty_bits, clock=clock)
    offset = 0
    while offset < len(data):
        if offset + 4 > len(data):
            raise ChainCorrupt("truncated record length")
        length = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        end = offset + length + _RECORD_CHECKSUM_SIZE
        if end > len(data):
            raise ChainCorrupt("truncated record")
        payload = data[offset:offset + length]
        checksum = data[offset + length:end]
        if sha256(payload).digest() != checksum:
            raise ChainCorrupt("record checksum mismatch")
        try:
            checked = _check_block(payload)
        except ValueError as exc:
            raise ChainCorrupt(f"bad block record: {exc}") from exc
        chain._unbuilt.append(checked)
        chain._seen.update(tx[6] for tx in checked[1])
        offset = end
    return chain


def _frame_record(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload + digest(payload).value
