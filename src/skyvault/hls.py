"""HLS packaging: encrypted byte-range segments plus M3U8 playlists.

Media is treated as opaque bytes. Each segment is AES-128-CBC encrypted
with PKCS#7 padding; the IV is the segment's sequence number as a
16-octet big-endian integer, which players apply by default when the
#EXT-X-KEY tag carries no IV attribute. One key covers the whole
package, and the playlist's key URI points at the licensing flow
rather than a file: the key itself is never written next to segments.

Playlist grammar enforced here (the mandatory-tag subset for media
playlists, plus ordering):

* line 1 is exactly ``#EXTM3U``;
* ``#EXT-X-VERSION:3``, ``#EXT-X-TARGETDURATION:<int>``,
  ``#EXT-X-MEDIA-SEQUENCE:<int>`` and
  ``#EXT-X-KEY:METHOD=AES-128,URI="<uri>"`` each appear exactly once;
* each segment is ``#EXTINF:<duration>,`` directly followed by a
  URI line; durations rounded to the nearest integer never exceed the
  target duration;
* ``#EXT-X-ENDLIST`` is present and nothing but blank lines follow it.

Master playlists require ``#EXTM3U`` plus at least one
``#EXT-X-STREAM-INF:BANDWIDTH=<n>`` line followed by its media playlist
URI, bandwidths strictly increasing.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Optional

from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import (
    BadKeyLength,
    DuplicateBandwidth,
    EmptyMedia,
    MalformedPlaylist,
    MissingSegment,
    NoRenditions,
    PaddingError,
)
from .wire import Record

DEFAULT_SEGMENT_BYTES = 1048576
DEFAULT_DURATION_HINT = 6.0
DEFAULT_KEY_URI = "skydrm://license/pending"
HLS_KEY_SIZE = 16
MEDIA_SEQUENCE_BASE = 0

_IV_SIZE = 16


class Segment(Record):
    name: str
    ciphertext: bytes


class HlsPackage(Record):
    media_playlist: str
    segments: tuple[Segment, ...]
    key_uri: str
    key: Optional[bytes]


class Rendition(Record):
    bandwidth: int
    media_playlist_name: str


class MasterPlaylist(Record):
    text: str
    renditions: tuple[Rendition, ...]


def sequence_iv(sequence: int) -> bytes:
    return sequence.to_bytes(_IV_SIZE, "big")


def encrypt_segment(key: bytes, sequence: int, plaintext: bytes) -> bytes:
    padder = padding.PKCS7(128).padder()
    padded = padder.update(plaintext) + padder.finalize()
    encryptor = Cipher(algorithms.AES(key), modes.CBC(sequence_iv(sequence))).encryptor()
    return encryptor.update(padded) + encryptor.finalize()


def decrypt_segment(key: bytes, sequence: int, ciphertext: bytes) -> bytes:
    if not ciphertext or len(ciphertext) % 16:
        raise PaddingError(f"segment {sequence}: ciphertext not block-aligned")
    decryptor = Cipher(algorithms.AES(key), modes.CBC(sequence_iv(sequence))).decryptor()
    padded = decryptor.update(ciphertext) + decryptor.finalize()
    unpadder = padding.PKCS7(128).unpadder()
    try:
        return unpadder.update(padded) + unpadder.finalize()
    except ValueError:
        raise PaddingError(f"segment {sequence}: bad padding "
                           "(wrong key or corrupted data)") from None


def segment_name(sequence: int) -> str:
    return f"seg{sequence}.ts"


def package(media: bytes, key: bytes, segment_bytes: int = DEFAULT_SEGMENT_BYTES,
            key_uri: str = DEFAULT_KEY_URI) -> HlsPackage:
    """Split, encrypt, and describe media as an HLS rendition."""
    if not media:
        raise EmptyMedia("no media bytes to package")
    if len(key) != HLS_KEY_SIZE:
        raise BadKeyLength(f"HLS key must be {HLS_KEY_SIZE} octets, got {len(key)}")
    if segment_bytes < 1:
        raise ValueError("segment_bytes must be >= 1")
    segments = tuple(
        Segment(name=segment_name(i),
                ciphertext=encrypt_segment(key, MEDIA_SEQUENCE_BASE + i, piece))
        for i, piece in enumerate(
            media[off:off + segment_bytes]
            for off in range(0, len(media), segment_bytes)))
    lines = [
        "#EXTM3U",
        "#EXT-X-VERSION:3",
        f"#EXT-X-TARGETDURATION:{math.ceil(DEFAULT_DURATION_HINT)}",
        f"#EXT-X-MEDIA-SEQUENCE:{MEDIA_SEQUENCE_BASE}",
        f'#EXT-X-KEY:METHOD=AES-128,URI="{key_uri}"',
    ]
    for segment in segments:
        lines.append(f"#EXTINF:{DEFAULT_DURATION_HINT:.1f},")
        lines.append(segment.name)
    lines.append("#EXT-X-ENDLIST")
    return HlsPackage(
        media_playlist="\n".join(lines) + "\n",
        segments=segments,
        key_uri=key_uri,
        key=key,
    )


def unpackage(pkg: HlsPackage, key: bytes) -> bytes:
    """Reverse of package: playlist-ordered decrypt and reassembly."""
    if len(key) != HLS_KEY_SIZE:
        raise BadKeyLength(f"HLS key must be {HLS_KEY_SIZE} octets, got {len(key)}")
    parsed = validate_media_playlist(pkg.media_playlist)
    by_name = {segment.name: segment.ciphertext for segment in pkg.segments}
    parts = []
    for position, (_, name) in enumerate(parsed.segments):
        if name not in by_name:
            raise MissingSegment(f"missing segment: {name}", segment=name)
        sequence = parsed.media_sequence + position
        parts.append(decrypt_segment(key, sequence, by_name[name]))
    return b"".join(parts)


def master_playlist(renditions: list[Rendition]) -> MasterPlaylist:
    """Emit the top-level ABR playlist, lowest bandwidth first."""
    if not renditions:
        raise NoRenditions("a master playlist needs at least one rendition")
    bandwidths = [r.bandwidth for r in renditions]
    if len(set(bandwidths)) != len(bandwidths):
        dupe = next(b for b in bandwidths if bandwidths.count(b) > 1)
        raise DuplicateBandwidth(f"bandwidth {dupe} listed twice")
    ordered = tuple(sorted(renditions, key=lambda r: r.bandwidth))
    lines = ["#EXTM3U", "#EXT-X-VERSION:3"]
    for rendition in ordered:
        lines.append(f"#EXT-X-STREAM-INF:BANDWIDTH={rendition.bandwidth}")
        lines.append(rendition.media_playlist_name)
    return MasterPlaylist(text="\n".join(lines) + "\n", renditions=ordered)


class ParsedMediaPlaylist(Record):
    version: int
    target_duration: int
    media_sequence: int
    key_method: str
    key_uri: str
    segments: tuple[tuple[float, str], ...]


_KEY_RE = re.compile(r'^#EXT-X-KEY:METHOD=([A-Z0-9-]+),URI="([^"]*)"$')
_EXTINF_RE = re.compile(r"^#EXTINF:([0-9]+(?:\.[0-9]+)?),(.*)$")


def _int_attr(line: str) -> int:
    value = line.partition(":")[2]
    if not value.isdigit():
        raise MalformedPlaylist(f"non-integer value in {line!r}")
    return int(value)


def _key_attr(line: str) -> tuple[str, str]:
    match = _KEY_RE.match(line)
    if not match:
        raise MalformedPlaylist(f"bad #EXT-X-KEY line: {line!r}")
    return match.group(1), match.group(2)


# The tags a media playlist carries exactly once, each with the parser
# of its line, in the order a missing one is reported.
_ONCE_TAGS = {"#EXT-X-VERSION": _int_attr, "#EXT-X-TARGETDURATION": _int_attr,
              "#EXT-X-MEDIA-SEQUENCE": _int_attr, "#EXT-X-KEY": _key_attr}


def validate_media_playlist(text: str) -> ParsedMediaPlaylist:
    """Parse and check the media-playlist grammar; raises MalformedPlaylist."""
    lines = text.splitlines()
    if not lines or lines[0] != "#EXTM3U":
        raise MalformedPlaylist("first line must be #EXTM3U")
    once = {}  # tag -> parsed value
    segments: list[tuple[float, str]] = []
    pending_duration: Optional[float] = None
    ended = False
    for line in lines[1:]:
        if not line.strip():
            continue
        if ended:
            raise MalformedPlaylist(f"content after #EXT-X-ENDLIST: {line!r}")
        tag, colon, _ = line.partition(":")
        if colon and tag in _ONCE_TAGS:
            if tag in once:
                raise MalformedPlaylist(f"duplicate {tag}")
            once[tag] = _ONCE_TAGS[tag](line)
        elif line.startswith("#EXTINF:"):
            if pending_duration is not None:
                raise MalformedPlaylist("#EXTINF without a following URI")
            match = _EXTINF_RE.match(line)
            if not match or math.isinf(float(match.group(1))):
                raise MalformedPlaylist(f"bad #EXTINF line: {line!r}")
            pending_duration = float(match.group(1))
        elif line == "#EXT-X-ENDLIST":
            ended = True
        elif line.startswith("#"):
            raise MalformedPlaylist(f"unknown tag: {line!r}")
        else:
            if pending_duration is None:
                raise MalformedPlaylist(f"URI without preceding #EXTINF: {line!r}")
            segments.append((pending_duration, line))
            pending_duration = None
    if pending_duration is not None:
        raise MalformedPlaylist("trailing #EXTINF without URI")
    for tag in _ONCE_TAGS:
        if tag not in once:
            raise MalformedPlaylist(f"missing {tag}")
    if not ended:
        raise MalformedPlaylist("missing #EXT-X-ENDLIST")
    if not segments:
        raise MalformedPlaylist("playlist lists no segments")
    names = [name for _, name in segments]
    if len(set(names)) != len(names):
        raise MalformedPlaylist("segment referenced more than once")
    target = once["#EXT-X-TARGETDURATION"]
    for duration, name in segments:
        if round(duration) > target:
            raise MalformedPlaylist(
                f"segment {name} duration {duration} exceeds target {target}")
    key_method, key_uri = once["#EXT-X-KEY"]
    return ParsedMediaPlaylist(
        version=once["#EXT-X-VERSION"], target_duration=target,
        media_sequence=once["#EXT-X-MEDIA-SEQUENCE"],
        key_method=key_method, key_uri=key_uri, segments=tuple(segments))


def validate_master_playlist(text: str) -> tuple[Rendition, ...]:
    """Parse and check the master-playlist grammar; raises MalformedPlaylist."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "#EXTM3U":
        raise MalformedPlaylist("first line must be #EXTM3U")
    renditions: list[Rendition] = []
    pending_bandwidth: Optional[int] = None
    for line in lines[1:]:
        if line.startswith("#EXT-X-STREAM-INF:"):
            if pending_bandwidth is not None:
                raise MalformedPlaylist("STREAM-INF without a following URI")
            match = re.search(r"BANDWIDTH=(\d+)", line)
            if not match:
                raise MalformedPlaylist(f"STREAM-INF missing BANDWIDTH: {line!r}")
            pending_bandwidth = int(match.group(1))
        elif line.startswith("#"):
            continue
        else:
            if pending_bandwidth is None:
                raise MalformedPlaylist(f"URI without preceding STREAM-INF: {line!r}")
            renditions.append(Rendition(pending_bandwidth, line))
            pending_bandwidth = None
    if pending_bandwidth is not None:
        raise MalformedPlaylist("trailing STREAM-INF without URI")
    if not renditions:
        raise MalformedPlaylist("master playlist lists no renditions")
    bandwidths = [r.bandwidth for r in renditions]
    if bandwidths != sorted(bandwidths) or len(set(bandwidths)) != len(bandwidths):
        raise MalformedPlaylist("bandwidths must be strictly increasing")
    return tuple(renditions)


PLAYLIST_FILENAME = "playlist.m3u8"
MASTER_FILENAME = "master.m3u8"


def write_package(pkg: HlsPackage, outdir, master: MasterPlaylist | None = None):
    """Lay the package out on disk; the key is deliberately not written."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / PLAYLIST_FILENAME).write_text(pkg.media_playlist, encoding="utf-8")
    for segment in pkg.segments:
        (out / segment.name).write_bytes(segment.ciphertext)
    if master is not None:
        (out / MASTER_FILENAME).write_text(master.text, encoding="utf-8")


def read_package(outdir, key: bytes | None = None) -> HlsPackage:
    """Reload a written package; segment order comes from the playlist."""
    out = Path(outdir)
    playlist = (out / PLAYLIST_FILENAME).read_text(encoding="utf-8")
    parsed = validate_media_playlist(playlist)
    segments = []
    for _, name in parsed.segments:
        path = out / name
        if not path.exists():
            raise MissingSegment(f"missing segment: {name}", segment=name)
        segments.append(Segment(name=name, ciphertext=path.read_bytes()))
    return HlsPackage(
        media_playlist=playlist,
        segments=tuple(segments),
        key_uri=parsed.key_uri,
        key=key,
    )
