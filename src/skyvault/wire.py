"""Canonical byte encodings shared by every hashed or persisted structure.

Layout rule, bit-exact and stable (also documented in the README):

* a *field* is a 4-byte big-endian unsigned length followed by the raw
  field bytes;
* a *record* is the concatenation of its fields in declared order, so
  a record that extends another (a transaction its body, a block its
  header) is the packed shorter record followed by its own fields;
* integers are 8-byte big-endian unsigned values, framed like any field;
* nested records are packed first and framed as one field;
* text is UTF-8.

Decoding is strict: truncated fields, lengths past the end of the buffer,
and trailing bytes are all rejected with ``ValueError``. Callers wrap
that into their own error types.
"""

from __future__ import annotations

import base64
import struct

_LEN_PREFIX = 4
_LENGTH = struct.Struct(">I")
_U64_MAX = 2**64 - 1


def u64(value: int) -> bytes:
    """Encode a non-negative integer as 8 big-endian bytes."""
    if not 0 <= value <= _U64_MAX:
        raise ValueError(f"u64 out of range: {value}")
    return value.to_bytes(8, "big")


def read_u64(data: bytes) -> int:
    if len(data) != 8:
        raise ValueError(f"u64 field must be 8 bytes, got {len(data)}")
    return int.from_bytes(data, "big")


def pack_fields(fields) -> bytes:
    """Concatenate length-prefixed fields in order."""
    out = bytearray()
    for field in fields:
        out += len(field).to_bytes(_LEN_PREFIX, "big")
        out += field
    return bytes(out)


def unpack_fields(data: bytes, expected: int | None = None) -> list[bytes]:
    """Split a packed record back into its fields.

    Rejects truncation and trailing garbage; if ``expected`` is given the
    field count must match exactly. Because framing is strict, the first
    k fields occupy exactly ``framed_size(fields[:k])`` leading bytes.
    """
    fields = []
    pos = 0
    total = len(data)
    read_length = _LENGTH.unpack_from
    while pos < total:
        if pos + _LEN_PREFIX > total:
            raise ValueError("truncated field length")
        (length,) = read_length(data, pos)
        pos += _LEN_PREFIX
        end = pos + length
        if end > total:
            raise ValueError("field length past end of record")
        fields.append(data[pos:end])
        pos = end
    if expected is not None and len(fields) != expected:
        raise ValueError(f"expected {expected} fields, found {len(fields)}")
    return fields


def framed_size(fields) -> int:
    """Length of ``pack_fields(fields)``, without building it."""
    return _LEN_PREFIX * len(fields) + sum(map(len, fields))


def b64u(data: bytes) -> str:
    """base64url without padding, the rendering for keys and envelopes."""
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def b64u_decode(text: str) -> bytes:
    """Strict inverse of :func:`b64u`; padded or malformed input is rejected."""
    if "=" in text:
        raise ValueError("padded base64url not accepted")
    pad = -len(text) % 4
    if pad == 3:
        raise ValueError("invalid base64url length")
    try:
        return base64.urlsafe_b64decode(text + "=" * pad)
    except Exception as exc:
        raise ValueError(f"invalid base64url: {exc}") from exc
