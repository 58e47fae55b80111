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

Every value type those records carry is a :class:`Record`: its fields
are the class annotations, in order, read once when the class is made.
A record is built positionally or by keyword, checks itself in
``__post_init__``, compares and hashes by its fields and reprs as
``Name(field=value, ...)``. It is frozen unless declared with
``frozen=False``; ``record.replace(**changes)`` is the way to a changed
copy, checked like any new instance. ``FIELDS`` maps each field to its
default. No code is generated per class, so importing the value types
costs no ``dataclasses`` and no ``exec``.
"""

from __future__ import annotations

import base64
import struct
from operator import attrgetter

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
    """Strict inverse of :func:`b64u`: only the text it writes is accepted,
    so padding, other characters and nonzero unused bits are rejected."""
    try:
        data = base64.urlsafe_b64decode(text + "=" * (-len(text) % 4))
    except Exception as exc:
        raise ValueError(f"invalid base64url: {exc}") from exc
    if b64u(data) != text:
        raise ValueError("not canonical base64url")
    return data


_REQUIRED = object()  # the FIELDS default of a field that has none


class Record:
    """Base of the value types; see the module docstring. A subclass with
    ``__slots__`` names its fields there too."""

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True):
        own = cls.__dict__
        slots = own.get("__slots__", ())
        cls.FIELDS = {name: own[name] if name in own and name not in slots else _REQUIRED
                      for name in own.get("__annotations__", {})}
        cls._slotted = bool(slots)
        # The field values as == and hash see them. An attrgetter binds to
        # no instance, so it is called as self._key(self).
        cls._key = attrgetter(*cls.FIELDS)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self.FIELDS
        given = len(args) + len(kwargs)
        kwargs.update(zip(fields, args))
        if len(kwargs) != given or kwargs.keys() != fields.keys():
            complete = {**fields, **kwargs}
            if (len(kwargs) != given or len(complete) != len(fields)
                    or any(value is _REQUIRED for value in complete.values())):
                raise TypeError(f"{type(self).__name__} takes the fields {list(fields)}")
            kwargs = complete
        if self._slotted:
            for field, value in kwargs.items():
                object.__setattr__(self, field, value)
        else:
            vars(self).update(kwargs)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a subclass with rules overrides this."""

    def replace(self, **changes):
        """A copy with CHANGES, checked like any new instance."""
        return type(self)(**{**{name: getattr(self, name) for name in self.FIELDS}, **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"
