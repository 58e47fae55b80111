import os
import random
import shutil
import subprocess

import pytest
from click.testing import CliRunner

from skyvault.cli import main


def openssl_available() -> bool:
    return shutil.which("openssl") is not None


def openssl_sha256(data: bytes) -> str:
    """Independent SHA-256 oracle via the openssl CLI."""
    out = subprocess.run(["openssl", "dgst", "-sha256", "-hex"],
                         input=data, capture_output=True, check=True).stdout
    return out.decode().strip().rsplit(" ", 1)[-1]


def openssl_aes128_cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """Independent AES-128-CBC + PKCS#7 decryption oracle via the openssl CLI."""
    return subprocess.run(
        ["openssl", "enc", "-d", "-aes-128-cbc", "-K", key.hex(), "-iv", iv.hex()],
        input=ciphertext, capture_output=True, check=True).stdout


requires_openssl = pytest.mark.skipif(
    not openssl_available(), reason="openssl CLI not available")


@pytest.fixture
def rng():
    """Seeded RNG so failures reproduce."""
    return random.Random(0x5EED)


class FakeClock:
    """Deterministic clock injected wherever expiry matters."""

    def __init__(self, start: int = 1_700_000_000):
        self.now = start

    def __call__(self) -> int:
        return self.now

    def advance(self, seconds: int):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


_PAST_NS = 1_000_000_000 * 10**9  # 2001-09-09: older than any file a test writes


def file_stats(root) -> dict[str, tuple[int, int, int]]:
    stats = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            stats[str(path.relative_to(root))] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return stats


def files_written(root, *args) -> set[str]:
    """Run one CLI command on the state at ROOT and return the paths,
    relative to ROOT, of the files it created, rewrote or removed.

    Every file is first dated to one fixed past mtime, so that a rewrite
    shows even when it lands within the same timer tick as the last one.
    """
    for path in root.rglob("*"):
        if path.is_file():
            os.utime(path, ns=(_PAST_NS, _PAST_NS))
    before = file_stats(root)
    result = CliRunner().invoke(main, ["--state", str(root), *args],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    after = file_stats(root)
    return {path for path in before.keys() | after.keys()
            if before.get(path) != after.get(path)}
