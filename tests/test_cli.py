"""CLI gateway: the full operator workflow, persisted between invocations."""

import contextlib
import hashlib
import itertools
import json
import os
import re
import select
import shlex
import shutil
import socket
import stat
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import click
import pytest
from click.testing import CliRunner
from conftest import file_stats, files_written

from skyvault import ledger
from skyvault.cli import main
from skyvault.crypto import Envelope, derive_credential, generate_keypair
from skyvault.hls import read_package, unpackage
from skyvault.identity import SessionToken, solve_challenge
from skyvault.ledger import load_chain
from skyvault.state import Config, StateDirectory, load_world
from skyvault.storage import SkyLink
from skyvault.wire import b64u, b64u_decode

PASSWORD = "sturdy password"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def root(tmp_path):
    return tmp_path / "state"


def run(runner, root, *args, expect=0):
    result = runner.invoke(main, ["--state", str(root), *args],
                           catch_exceptions=False)
    assert result.exit_code == expect, result.output + str(result.stderr_bytes)
    return result


def stderr_json(result) -> dict:
    return json.loads(result.stderr_bytes.decode().strip().splitlines()[-1])


def bootstrap(runner, root, tmp_path, size=200_000):
    """init + two accounts + provider uploads and publishes one file."""
    run(runner, root, "init", "--chunk-size", "4096")
    run(runner, root, "register", "studio-prime", "--password", PASSWORD)
    run(runner, root, "register", "alice-consumer", "--password", PASSWORD)
    media = os.urandom(size)
    src = tmp_path / "feature.bin"
    src.write_bytes(media)
    run(runner, root, "login", "studio-prime", "--password", PASSWORD)
    result = run(runner, root, "upload", str(src))
    skylink = result.output.split("Skylink: ")[1].strip()
    run(runner, root, "publish", skylink, "--title", "Example Feature")
    return media, skylink


class TestWorkflow:
    def test_upload_download_round_trip(self, runner, root, tmp_path):
        media, skylink = bootstrap(runner, root, tmp_path)
        result = run(runner, root, "download", skylink, str(tmp_path / "out.bin"))
        assert "Successfully downloaded skylink!" in result.output
        assert (tmp_path / "out.bin").read_bytes() == media

    def test_upload_output_line(self, runner, root, tmp_path):
        _, skylink = bootstrap(runner, root, tmp_path)
        assert skylink.startswith("sia://")

    def test_full_purchase_flow(self, runner, root, tmp_path):
        media, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        result = run(runner, root, "buy", skylink, "--max-uses", "2")
        assert "committed in block 0" in result.output
        result = run(runner, root, "play", skylink, str(tmp_path / "played.bin"))
        assert (tmp_path / "played.bin").read_bytes() == media
        assert "uses: 1/2" in result.output
        run(runner, root, "play", skylink, str(tmp_path / "played2.bin"))
        result = run(runner, root, "play", skylink,
                     str(tmp_path / "played3.bin"), expect=1)
        payload = stderr_json(result)
        assert payload["error"] == "rights_denied"
        assert payload["reason"] == "UsesExhausted"
        assert not (tmp_path / "played3.bin").exists()

    def test_verify_chain_after_purchases(self, runner, root, tmp_path):
        _, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        run(runner, root, "buy", skylink)
        run(runner, root, "buy", skylink)
        result = run(runner, root, "verify-chain")
        assert result.output.strip() == "ok"

    def test_chain_tamper_detected(self, runner, root, tmp_path):
        _, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        run(runner, root, "buy", skylink)
        chain_path = root / "chain.log"
        blob = bytearray(chain_path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        chain_path.write_bytes(bytes(blob))
        result = run(runner, root, "verify-chain", expect=1)
        assert stderr_json(result)["error"] == "chain_corrupt"

    def test_host_failures_and_failover(self, runner, root, tmp_path):
        media, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "host", "fail", "h0")
        run(runner, root, "host", "fail", "h1")
        listing = run(runner, root, "host", "list").output
        assert "h0\tdown" in listing and "h2\tup" in listing
        result = run(runner, root, "download", skylink, str(tmp_path / "o.bin"))
        assert (tmp_path / "o.bin").read_bytes() == media
        run(runner, root, "host", "revive", "h0")
        assert "h0\tup" in run(runner, root, "host", "list").output


class TestErrors:
    def test_buy_without_login(self, runner, root, tmp_path):
        _, skylink = bootstrap(runner, root, tmp_path)
        (root / "session.json").unlink()
        result = run(runner, root, "buy", skylink, expect=1)
        assert stderr_json(result)["error"] == "not_authenticated"

    def test_unpublished_content_not_buyable(self, runner, root, tmp_path):
        bootstrap(runner, root, tmp_path)
        result = run(runner, root, "buy", "sia://AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
                     expect=1)
        assert stderr_json(result)["error"] == "unknown_skylink"

    @pytest.mark.parametrize("actions", ["bogus", ""])
    def test_unknown_action_not_buyable(self, runner, root, tmp_path, actions):
        _, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        result = run(runner, root, "buy", skylink, "--actions", actions, expect=1)
        assert stderr_json(result)["error"] == "unknown_action"
        assert not (root / "chain.log").exists()

    def test_unknown_action_not_playable(self, runner, root, tmp_path):
        _, skylink = bootstrap(runner, root, tmp_path, size=20_000)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        run(runner, root, "buy", skylink, "--max-uses", "1")
        out = tmp_path / "o.bin"
        result = run(runner, root, "play", skylink, str(out), "--action", "fly", expect=1)
        assert stderr_json(result)["error"] == "unknown_action"
        assert not out.exists()
        # No use was spent: the one-use license still plays once.
        assert "uses: 1/1" in run(runner, root, "play", skylink, str(out)).output

    def test_command_before_init(self, runner, root):
        result = run(runner, root, "verify-chain", expect=1)
        assert stderr_json(result)["error"] == "state_missing"

    def test_duplicate_register(self, runner, root):
        run(runner, root, "init")
        run(runner, root, "register", "alice-consumer", "--password", PASSWORD)
        result = run(runner, root, "register", "alice-consumer",
                     "--password", PASSWORD, expect=1)
        assert stderr_json(result)["error"] == "duplicate_id"

    @pytest.mark.parametrize("bad_id", ["../../escaped"])
    def test_register_unsafe_id_refused(self, runner, root, tmp_path, bad_id):
        run(runner, root, "init")
        result = run(runner, root, "register", bad_id, "--password", PASSWORD,
                     expect=1)
        assert stderr_json(result)["error"] == "bad_identifier"
        assert not list(tmp_path.rglob("escaped*"))
        assert not list((root / "accounts").iterdir())
        assert not list((root / "keys").iterdir())

    def test_keystore_ids_checked(self, runner, root, tmp_path):
        bootstrap(runner, root, tmp_path)
        bad_id = "../accounts/alice-consumer"
        result = run(runner, root, "login", bad_id, "--password", PASSWORD,
                     expect=1)
        assert stderr_json(result)["error"] == "bad_identifier"

    def test_wrong_password_login(self, runner, root):
        run(runner, root, "init")
        run(runner, root, "register", "alice-consumer", "--password", PASSWORD)
        result = run(runner, root, "login", "alice-consumer",
                     "--password", "wrong password", expect=1)
        assert stderr_json(result)["error"] == "response_mismatch"

    def test_download_foreign_upload_denied(self, runner, root, tmp_path):
        _, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        result = run(runner, root, "download", skylink,
                     str(tmp_path / "x.bin"), expect=1)
        assert stderr_json(result)["error"] == "key_access_denied"


class TestDamagedState:
    """A missing or damaged state file is a JSON error naming the file."""

    def test_missing_roster(self, runner, root):
        run(runner, root, "init")
        (root / "hosts" / "roster.json").unlink()
        error = stderr_json(run(runner, root, "host", "list", expect=1))
        assert error["error"] == "state_missing"
        assert "roster.json" in error["message"]

    @pytest.mark.parametrize("damage, code", [
        (lambda key: key.write_bytes(key.read_bytes()[:20]), "state_corrupt"),
        (lambda key: key.unlink(), "state_missing")], ids=["torn", "missing"])
    def test_damaged_session_key(self, runner, root, damage, code):
        run(runner, root, "init")
        run(runner, root, "register", "alice-consumer", "--password", PASSWORD)
        damage(root / "session.key")
        error = stderr_json(run(runner, root, "login", "alice-consumer",
                                "--password", PASSWORD, expect=1))
        assert error["error"] == code
        assert "session.key" in error["message"]
        assert not (root / "session.json").exists()

    def test_license_counter_out_of_range(self, runner, root, tmp_path):
        # Edited to -3, a --max-uses 1 license once allowed four plays.
        _, skylink = bootstrap(runner, root, tmp_path, size=20_000)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        run(runner, root, "buy", skylink, "--max-uses", "1")
        [path] = (root / "licenses").iterdir()
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "uses_consumed": -3}))
        result = run(runner, root, "play", skylink, str(tmp_path / "o.bin"), expect=1)
        error = stderr_json(result)
        assert error["error"] == "state_corrupt"
        assert path.name in error["message"]
        assert not (tmp_path / "o.bin").exists()

    def test_stray_fragment_name(self, runner, root):
        run(runner, root, "init")
        (root / "hosts" / "h0").mkdir(exist_ok=True)
        (root / "hosts" / "h0" / "abc").write_bytes(b"not a fragment")
        error = stderr_json(run(runner, root, "host", "list", expect=1))
        assert error["error"] == "state_corrupt"
        assert "abc" in error["message"]

    @staticmethod
    def refused(runner, root, *args) -> dict:
        """ARGS end in one JSON error with exit 1, and no traceback."""
        result = runner.invoke(main, ["--state", str(root), *args],
                               catch_exceptions=False)
        stderr = result.stderr_bytes.decode()
        assert result.exit_code == 1, stderr
        assert "Traceback" not in stderr
        return json.loads(stderr)

    @pytest.mark.parametrize("catalog", [
        [1],
        {"a": 1},
        [{"skylink": "sia://AAAA"}],
        [{"title": "T", "skylink": "sia://AAAA", "provider_id": 7}],
    ], ids=["number", "object", "missing-keys", "number-provider"])
    @pytest.mark.parametrize("command", ["buy", "publish"])
    def test_damaged_catalog(self, runner, purchased, tmp_path, catalog, command):
        root = _copy(purchased, tmp_path)
        (root / "catalog.json").write_text(json.dumps(catalog))
        args = [command, purchased.skylink]
        if command == "publish":  # only the uploader reaches the catalog
            run(runner, root, "login", "studio-prime", "--password", PASSWORD)
            args += ["--title", "Again"]
        error = self.refused(runner, root, *args)
        assert error["error"] == "state_corrupt"
        assert "catalog.json" in error["message"]

    @pytest.mark.parametrize("roster", [
        [{"host_id": 5, "alive": True}],
        [{"host_id": "h0", "alive": "false"}],
        [{"host_id": "h0", "alive": True}, {"host_id": "h0", "alive": False}],
    ], ids=["number-id", "string-alive", "twice"])
    def test_damaged_roster(self, runner, root, roster):
        run(runner, root, "init")
        (root / "hosts" / "roster.json").write_text(json.dumps(roster))
        error = self.refused(runner, root, "host", "list")
        assert error["error"] == "state_corrupt"
        assert "roster.json" in error["message"]

    @pytest.mark.parametrize("host_id", ["../../outside", "..", "a/b", "/tmp", ""])
    @pytest.mark.parametrize("command", ["host list", "upload", "download"])
    def test_roster_id_not_a_file_name(self, runner, purchased, tmp_path, monkeypatch,
                                       host_id, command):
        # Joined to hosts/ unchecked, "../../outside" counted the planted
        # file below as a fragment, and upload wrote one there.
        root = _copy(purchased, tmp_path)
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / ("ab" * 32)).write_bytes(b"planted")
        roster = json.loads((root / "hosts" / "roster.json").read_text())
        roster[0]["host_id"] = host_id
        (root / "hosts" / "roster.json").write_text(json.dumps(roster))
        args = {"host list": ["host", "list"],
                "upload": ["upload", str(purchased.small)],
                "download": ["download", purchased.skylink, str(tmp_path / "got.bin")]}
        touched = []

        def recording(original):
            def record(path, *rest, **kwargs):
                touched.append(path)
                return original(path, *rest, **kwargs)
            return record

        for name in ("glob", "read_bytes", "mkdir"):
            monkeypatch.setattr(Path, name, recording(getattr(Path, name)))
        monkeypatch.setattr(os, "open", recording(os.open))
        error = self.refused(runner, root, *args[command])
        monkeypatch.undo()
        assert error["error"] == "state_corrupt"
        assert "roster.json" in error["message"]
        inside = os.path.abspath(root)
        assert all(os.path.commonpath([inside, os.path.abspath(path)]) == inside
                   for path in touched)
        assert sorted(os.listdir(outside)) == ["ab" * 32]
        assert not (tmp_path / "got.bin").exists()

    @pytest.mark.parametrize("copy", [False, True], ids=["renamed", "copied"])
    def test_account_filed_under_another_id(self, runner, purchased, tmp_path, copy):
        # Renamed, alice's record was read as bob-viewer's; copied, every
        # command was duplicate_id, naming no file.
        root = _copy(purchased, tmp_path)
        alice = root / "accounts" / "alice-consumer.json"
        bob = root / "accounts" / "bob-viewer.json"
        if copy:
            shutil.copy(alice, bob)
        else:
            alice.rename(bob)
        error = self.refused(runner, root, "host", "list")
        assert error["error"] == "state_corrupt"
        assert "bob-viewer.json does not match its record" in error["message"]


class TestPublish:
    def test_only_the_uploader_lists_a_skylink_once(self, runner, root, tmp_path):
        media, skylink = bootstrap(runner, root, tmp_path)
        catalog = (root / "catalog.json").read_bytes()
        result = run(runner, root, "publish", skylink, "--title", "Again", expect=1)
        assert stderr_json(result)["error"] == "already_published"
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        result = run(runner, root, "publish", skylink, "--title", "Knock-off", expect=1)
        assert stderr_json(result)["error"] == "key_access_denied"
        assert (root / "catalog.json").read_bytes() == catalog
        run(runner, root, "buy", skylink)
        run(runner, root, "play", skylink, str(tmp_path / "played.bin"))
        assert (tmp_path / "played.bin").read_bytes() == media


class TestInit:
    def test_options_mirror_config(self):
        options = {param.name: param.default for param in main.commands["init"].params}
        assert options == Config.FIELDS

    def test_bare_init_writes_default_config(self, runner, root):
        run(runner, root, "init")
        assert (root / "config").read_text(encoding="utf-8") == Config().to_text()


class TestHlsCommand:
    def test_package_and_key_out(self, runner, root, tmp_path):
        run(runner, root, "init", "--segment-bytes", "1000000")
        media = os.urandom(3_000_000)
        src = tmp_path / "movie.bin"
        src.write_bytes(media)
        outdir = tmp_path / "hls"
        keyfile = tmp_path / "movie.key"
        result = run(runner, root, "hls-package", str(src), str(outdir),
                     "--key-out", str(keyfile),
                     "--bandwidths", "800000,2400000")
        assert "Packaged 3 segments" in result.output
        key = keyfile.read_bytes()
        assert len(key) == 16
        pkg = read_package(outdir)
        assert unpackage(pkg, key) == media
        assert (outdir / "master.m3u8").exists()
        # Key must not be written anywhere inside the package directory.
        for path in outdir.iterdir():
            assert key not in path.read_bytes()

    def test_key_out_inside_outdir_refused(self, runner, root, tmp_path):
        run(runner, root, "init")
        src = tmp_path / "m.bin"
        src.write_bytes(b"media bytes")
        outdir = tmp_path / "hls"
        result = run(runner, root, "hls-package", str(src), str(outdir),
                     "--key-out", str(outdir / "k.key"), expect=2)
        assert "must not point inside" in result.output + str(result.stderr_bytes)
        assert not outdir.exists()

    @pytest.mark.parametrize("segment_bytes", ["0", "-5"])
    def test_nonpositive_segment_bytes_refused(self, runner, root, segment_bytes):
        # The segment size is set once, by init, and checked there.
        result = run(runner, root, "init", "--segment-bytes", segment_bytes, expect=1)
        assert stderr_json(result)["error"] == "bad_config"
        assert not (root / "config").exists()

    @pytest.mark.parametrize("size", [str(2**64), "9" * 30])
    def test_chunk_size_past_u64_refused(self, runner, root, size):
        # A manifest stores chunk_size as a u64, so no upload could be saved.
        result = run(runner, root, "init", "--chunk-size", size, expect=1)
        assert stderr_json(result)["error"] == "bad_config"
        assert not (root / "config").exists()

    def test_chunk_size_u64_max_accepted(self, runner, root, tmp_path):
        run(runner, root, "init", "--chunk-size", str(2**64 - 1))
        run(runner, root, "register", "studio-prime", "--password", PASSWORD)
        run(runner, root, "login", "studio-prime", "--password", PASSWORD)
        src = tmp_path / "m.bin"
        src.write_bytes(os.urandom(1000))
        skylink = run(runner, root, "upload", str(src)).output.split("Skylink: ")[1].strip()
        run(runner, root, "download", skylink, str(tmp_path / "o.bin"))
        assert (tmp_path / "o.bin").read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("bits", ["257", "300"])
    def test_unmeetable_pow_difficulty_refused(self, runner, root, bits):
        # No block hash has more than 256 leading zero bits, so no buy could mine.
        result = run(runner, root, "init", "--pow-difficulty", bits, expect=1)
        assert stderr_json(result)["error"] == "bad_config"
        assert not (root / "config").exists()

    def test_pow_difficulty_256_accepted(self, runner, root):
        run(runner, root, "init", "--pow-difficulty", "256")
        assert "pow_difficulty=256\n" in (root / "config").read_text(encoding="utf-8")


class TestColdRestart:
    def test_subprocess_sees_identical_state(self, runner, root, tmp_path):
        # Build state in-process, then interrogate it from a fresh python.
        media, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        run(runner, root, "buy", skylink)

        env = dict(os.environ,
                   SKYVAULT_STATE=str(root),
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        verify = subprocess.run(
            [sys.executable, "-m", "skyvault", "verify-chain"],
            capture_output=True, text=True, env=env)
        assert verify.returncode == 0, verify.stderr
        assert verify.stdout.strip() == "ok"

        out = tmp_path / "cold.bin"
        played = subprocess.run(
            [sys.executable, "-m", "skyvault", "play", skylink, str(out)],
            capture_output=True, text=True, env=env)
        assert played.returncode == 0, played.stderr
        assert out.read_bytes() == media


class TestLicenseLookup:
    def test_play_uses_callers_newest_license(self, runner, root, tmp_path,
                                              monkeypatch):
        _, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "register", "bob-consumer", "--password", PASSWORD)
        start = int(time.time())

        def at(offset, *args, expect=0):
            # The command's clock only: buys a second apart are ordered.
            monkeypatch.setattr("skyvault.cli.time",
                                SimpleNamespace(time=lambda: start + offset))
            return run(runner, root, *args, expect=expect)

        def buy(offset, max_uses):
            result = at(offset, "buy", skylink, "--max-uses", max_uses)
            return bytes.fromhex(re.search(r"license ([0-9a-f]+)", result.output)[1])

        def play(expect=0):
            return at(10, "play", skylink, str(tmp_path / "out.bin"), expect=expect)

        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        alice_old = buy(1, "5")
        alice_new = buy(2, "2")
        run(runner, root, "login", "bob-consumer", "--password", PASSWORD)
        bob_only = buy(3, "1")

        assert "uses: 1/1" in play().output
        assert stderr_json(play(expect=1))["reason"] == "UsesExhausted"
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        assert "uses: 1/2" in play().output
        assert "uses: 2/2" in play().output
        # The newest is spent, so the older license that still allows is used.
        assert "uses: 1/5" in play().output

        state = StateDirectory(root)
        uses = {}
        for license_id in (alice_old, alice_new, bob_only):
            lic = state.load_license(license_id)
            name = f"{lic.consumer_fingerprint.hex}-{license_id.hex()}.json"
            assert (state.licenses_dir / name).is_file()
            uses[license_id] = lic.uses_consumed
        assert uses == {alice_old: 1, alice_new: 2, bob_only: 1}
        content_id = SkyLink(skylink).digest()
        assert {lic.license_id for lic in state.load_licenses(
            "alice-consumer", content_id)} == {alice_old, alice_new}

    def test_play_breaks_issue_time_ties_by_license_id(self, runner, root, tmp_path,
                                                        monkeypatch):
        _, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        now = int(time.time())
        monkeypatch.setattr("skyvault.cli.time", SimpleNamespace(time=lambda: now))
        bought = [re.search(r"license ([0-9a-f]+)", run(runner, root, "buy", skylink).output)[1]
                  for _ in range(2)]
        run(runner, root, "play", skylink, str(tmp_path / "out.bin"))
        state = StateDirectory(root)
        uses = {license_id: state.load_license(bytes.fromhex(license_id)).uses_consumed
                for license_id in bought}
        assert uses == {max(bought): 1, min(bought): 0}


@pytest.fixture
def bought(runner, root, tmp_path):
    """Two uploads, one of them published and bought; alice-consumer is
    logged in. Returns the skylinks of the bought and the other upload."""
    _, skylink = bootstrap(runner, root, tmp_path, size=50_000)
    second = tmp_path / "second.bin"
    second.write_bytes(os.urandom(50_000))
    other = run(runner, root, "upload", str(second)).output.split("Skylink: ")[1].strip()
    run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
    run(runner, root, "buy", skylink)
    return SimpleNamespace(skylink=skylink, other=other)


class TestWriteSets:
    """Each command writes only the files for what it changed."""

    def test_register(self, root, bought):
        assert files_written(root, "register", "carol-viewer", "--password",
                             PASSWORD) == {"accounts/carol-viewer.json",
                                           "keys/carol-viewer.json"}

    def test_login(self, root, bought):
        assert files_written(root, "login", "studio-prime", "--password",
                             PASSWORD) == {"session.json"}

    def test_publish(self, runner, root, bought):
        run(runner, root, "login", "studio-prime", "--password", PASSWORD)
        assert files_written(root, "publish", bought.other,
                             "--title", "Second") == {"catalog.json"}

    def test_buy(self, root, bought):
        held = {f"licenses/{name}" for name in os.listdir(root / "licenses")}
        written = files_written(root, "buy", bought.skylink)
        new = written - {"chain.log"}
        assert "chain.log" in written
        assert len(new) == 2 and not new & held
        assert {path.split("/")[0] for path in new} == {"licenses", "secrets"}

    def test_play(self, root, bought, tmp_path):
        held = {f"licenses/{name}" for name in os.listdir(root / "licenses")}
        assert files_written(root, "play", bought.skylink,
                             str(tmp_path / "out.bin")) == held

    @pytest.mark.parametrize("command", [["host", "fail", "h1"],
                                         ["host", "revive", "h1"],
                                         ["upload"]])
    def test_network_commands_keep_fragments_and_accounts(self, runner, root, bought,
                                                          tmp_path, command):
        if command[0] == "upload":
            run(runner, root, "login", "studio-prime", "--password", PASSWORD)
            media = tmp_path / "third.bin"
            media.write_bytes(os.urandom(50_000))
            command = [*command, str(media)]
        if command[:2] == ["host", "revive"]:
            run(runner, root, "host", "fail", "h1")
        held = {str(path.relative_to(root)) for path in root.rglob("*")}
        written = files_written(root, *command)
        if command[0] == "host":
            assert written == {"hosts/roster.json"}
            return
        assert not written & held
        manifests = {path for path in written
                     if re.fullmatch(r"manifests/[0-9a-f]{64}\.manifest", path)}
        fragments = written - manifests
        assert len(manifests) == 1
        assert fragments and all(re.fullmatch(r"hosts/h\d/[0-9a-f]{64}", path)
                                 for path in fragments)

    def test_init(self, root):
        assert files_written(root, "init") == {"config", "session.key", "hosts/roster.json"}

    def test_init_again(self, runner, root, bought):
        # The session key and the hosts stay, and so does every login.
        assert files_written(root, "init") == {"config"}
        run(runner, root, "buy", bought.skylink)

    @pytest.mark.parametrize("command", [["host", "list"], ["verify-chain"],
                                         ["download"]])
    def test_reading_commands_write_nothing(self, runner, root, bought, tmp_path,
                                            command):
        if command[0] == "download":
            run(runner, root, "login", "studio-prime", "--password", PASSWORD)
            command = [*command, bought.skylink, str(tmp_path / "out.bin")]
        assert files_written(root, *command) == set()


class TestActingAccount:
    """upload, download and publish act as the stored login, and only as it."""

    COMMANDS = {
        "upload": ["upload", "{media}"],
        "download": ["download", "{skylink}", "{out}"],
        "publish": ["publish", "{other}", "--title", "Second"],
    }

    def _args(self, command, bought, tmp_path):
        media = tmp_path / "media.bin"
        media.write_bytes(os.urandom(5000))
        return [arg.format(media=media, skylink=bought.skylink, other=bought.other,
                           out=tmp_path / "out.bin") for arg in self.COMMANDS[command]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_as_is_a_usage_error(self, runner, root, bought, tmp_path, command):
        args = self._args(command, bought, tmp_path)
        result = run(runner, root, *args, "--as", "studio-prime", expect=2)
        assert "--as" in result.stderr_bytes.decode()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_refused_without_login(self, runner, root, bought, tmp_path, command):
        args = self._args(command, bought, tmp_path)
        (root / "session.json").unlink()
        before = file_stats(root)
        result = run(runner, root, *args, expect=1)
        assert stderr_json(result)["error"] == "not_authenticated"
        assert file_stats(root) == before
        assert not (tmp_path / "out.bin").exists()

    def test_upload_is_the_logins(self, runner, root, bought, tmp_path):
        # alice-consumer is logged in, so only that account's key opens the upload.
        media = tmp_path / "own.bin"
        media.write_bytes(os.urandom(5000))
        own = run(runner, root, "upload", str(media)).output.split("Skylink: ")[1].strip()
        run(runner, root, "publish", own, "--title", "Home Video")
        assert StateDirectory(root).find_catalog_entry(own)["provider_id"] == "alice-consumer"
        run(runner, root, "login", "studio-prime", "--password", PASSWORD)
        result = run(runner, root, "download", own, str(tmp_path / "x.bin"), expect=1)
        assert stderr_json(result)["error"] == "key_access_denied"

    def test_option_count(self):
        def options(command):
            return (sum(isinstance(param, click.Option) for param in command.params)
                    + sum(options(sub) for sub in getattr(command, "commands", {}).values()))
        assert options(main) == 19


class TestFileModes:
    def test_state_files_are_owner_only(self, runner, root):
        # Keys, the session key and the login stay secret under umask 022,
        # and a 0644 temp file that a killed write left passes on no mode.
        umask = os.umask(0o022)
        try:
            run(runner, root, "init")
            run(runner, root, "register", "alice-consumer", "--password", PASSWORD)
            stale = root / ".session.json.tmp"
            stale.write_bytes(b"x" * 10_000)
            stale.chmod(0o644)
            run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        finally:
            os.umask(umask)
        modes = {str(path.relative_to(root)): stat.S_IMODE(path.stat().st_mode)
                 for path in root.rglob("*") if path.is_file() and path.name != "lock"}
        assert {"session.key", "keys/alice-consumer.json", "session.json"} <= modes.keys()
        assert set(modes.values()) == {0o600}, modes
        assert StateDirectory(root).load_login().account_id == "alice-consumer"


class Killed(BaseException):
    """Stands in for the signal that ends a command in the middle of a write."""


def _tear_write(monkeypatch, k: int):
    """Make the K-th state-file write (from 0) leave only the first half
    of its bytes in its temporary file, then end the command with
    ``Killed`` before the file is renamed into place."""
    writes = itertools.count()

    def torn(temp, path, _replace=os.replace):
        if next(writes) == k:
            os.truncate(temp, os.path.getsize(temp) // 2)
            raise Killed
        return _replace(temp, path)
    monkeypatch.setattr(os, "replace", torn)


@pytest.fixture(scope="module")
def purchased(tmp_path_factory):
    """A state with one upload, one publish and one purchase; alice-consumer
    is logged in. Copied before each use."""
    tmp_path = tmp_path_factory.mktemp("purchased")
    root, runner = tmp_path / "state", CliRunner()
    media, skylink = bootstrap(runner, root, tmp_path, size=20_000)
    run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
    run(runner, root, "buy", skylink)
    small = tmp_path / "small.bin"  # one chunk: three fragments, then the manifest
    small.write_bytes(os.urandom(1000))
    return SimpleNamespace(root=root, media=media, skylink=skylink, small=small)


class TestKilledMidWrite:
    """A command killed in the middle of any of its first writes leaves a
    state that every later command can load and use."""

    COMMANDS = {
        "register": ["register", "carol-viewer", "--password", PASSWORD],
        "login": ["login", "alice-consumer", "--password", PASSWORD],
        "play": ["play", "{skylink}", "{out}"],
        "upload": ["upload", "{small}"],
        "buy": ["buy", "{skylink}"],
        "host fail": ["host", "fail", "h0"],
    }

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("command", COMMANDS)
    def test_state_stays_usable(self, runner, purchased, tmp_path, monkeypatch,
                                command, k):
        root = tmp_path / "state"
        shutil.copytree(purchased.root, root)
        args = [arg.format(skylink=purchased.skylink, small=purchased.small,
                           out=tmp_path / "killed.bin")
                for arg in self.COMMANDS[command]]
        if command == "upload":  # as the provider; alice-consumer plays below
            run(runner, root, "login", "studio-prime", "--password", PASSWORD)
        with monkeypatch.context() as patch:
            _tear_write(patch, k)
            try:
                runner.invoke(main, ["--state", str(root), *args],
                              catch_exceptions=False)
            except Killed:
                pass
        if command == "upload":
            run(runner, root, "login", "alice-consumer", "--password", PASSWORD)

        load_world(root)
        assert run(runner, root, "verify-chain").output.strip() == "ok"
        run(runner, root, "host", "list")
        run(runner, root, "play", purchased.skylink, str(tmp_path / "played.bin"))
        assert (tmp_path / "played.bin").read_bytes() == purchased.media
        run(runner, root, "login", "studio-prime", "--password", PASSWORD)
        run(runner, root, "download", purchased.skylink, str(tmp_path / "got.bin"))
        assert (tmp_path / "got.bin").read_bytes() == purchased.media
        for path in root.glob("hosts/*/[0-9a-f]*"):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == path.name


def _copy(purchased, tmp_path) -> Path:
    root = tmp_path / "state"
    shutil.copytree(purchased.root, root)
    return root


class TestPlaySpend:
    """play spends a use only on content it delivers."""

    def test_failed_fetch_spends_no_use(self, runner, root, tmp_path):
        media, skylink = bootstrap(runner, root, tmp_path, size=20_000)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        run(runner, root, "buy", skylink, "--max-uses", "2")
        hosts = [f"h{i}" for i in range(5)]
        for host_id in hosts:
            run(runner, root, "host", "fail", host_id)
        for _ in range(2):
            result = run(runner, root, "play", skylink, str(tmp_path / "o.bin"), expect=1)
            assert stderr_json(result)["error"] == "all_replicas_down"
        for host_id in hosts:
            run(runner, root, "host", "revive", host_id)
        for uses in ("1/2", "2/2"):
            result = run(runner, root, "play", skylink, str(tmp_path / "o.bin"))
            assert f"uses: {uses}" in result.output
        assert (tmp_path / "o.bin").read_bytes() == media

    def test_unwritable_out_spends_no_use(self, runner, root, tmp_path):
        media, skylink = bootstrap(runner, root, tmp_path, size=20_000)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        run(runner, root, "buy", skylink, "--max-uses", "1")
        result = run(runner, root, "play", skylink, str(tmp_path / "missing" / "o.bin"),
                     expect=1)
        assert stderr_json(result)["error"] == "output_unwritable"
        result = run(runner, root, "play", skylink, str(tmp_path / "o.bin"))
        assert "uses: 1/1" in result.output
        assert (tmp_path / "o.bin").read_bytes() == media

    def test_no_license_held(self, runner, purchased, tmp_path):
        root = _copy(purchased, tmp_path)
        run(runner, root, "login", "studio-prime", "--password", PASSWORD)
        result = run(runner, root, "play", purchased.skylink, str(tmp_path / "o.bin"),
                     expect=1)
        assert stderr_json(result)["error"] == "unknown_license"
        assert not (tmp_path / "o.bin").exists()


class TestBadInput:
    """Bad input ends in one JSON error with exit 1, or in a usage error
    naming the option with exit 2; never in a traceback."""

    CASES = {
        "validity past u64": (["buy", "{skylink}", "--valid-seconds", "9" * 20],
                              1, "invalid_rules"),
        "bind without a port": (["serve", "--bind", "nonsense"], 2, "--bind"),
        "bind port out of range": (["serve", "--bind", "127.0.0.1:99999"], 2, "--bind"),
        "bandwidths not numbers": (["hls-package", "{media}", "{tmp}/hls",
                                    "--bandwidths", "abc"], 2, "--bandwidths"),
        "bandwidth zero": (["hls-package", "{media}", "{tmp}/hls",
                            "--bandwidths", "800000,0"], 2, "--bandwidths"),
        "download into a missing directory": (
            ["download", "{skylink}", "{tmp}/missing/x"], 1, "output_unwritable"),
        "key-out into a missing directory": (
            ["hls-package", "{media}", "{tmp}/hls", "--key-out", "{tmp}/missing/k"],
            1, "output_unwritable"),
        "package below a regular file": (
            ["hls-package", "{media}", "{media}/hls"], 1, "output_unwritable"),
        "play a non-skylink": (["play", "notalink", "{tmp}/o.bin"], 1, "unknown_skylink"),
        "play a short skylink": (["play", "sia://AAAA", "{tmp}/o.bin"],
                                 1, "unknown_skylink"),
        "chunk size past u64": (["init", "--chunk-size", str(2**64)], 1, "bad_config"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused_without_traceback(self, runner, purchased, tmp_path, case):
        argv, code, expected = self.CASES[case]
        root = _copy(purchased, tmp_path)
        args = [arg.format(skylink=purchased.skylink, media=purchased.small, tmp=tmp_path)
                for arg in argv]
        if args[0] == "download":  # the uploader's own download
            run(runner, root, "login", "studio-prime", "--password", PASSWORD)
        result = runner.invoke(main, ["--state", str(root), *args],
                               catch_exceptions=False)
        stderr = result.stderr_bytes.decode()
        assert result.exit_code == code, stderr
        assert "Traceback" not in stderr
        if code == 1:
            assert json.loads(stderr)["error"] == expected
        else:
            assert expected in stderr
        assert not (tmp_path / "hls").exists()


class TestVerifyChain:
    def test_reordered_records_fail_verification(self, runner, purchased, tmp_path):
        root = _copy(purchased, tmp_path)
        run(runner, root, "buy", purchased.skylink)
        chain_path = root / "chain.log"
        data = chain_path.read_bytes()
        first = 4 + int.from_bytes(data[:4], "big") + 32  # length, record, checksum
        chain_path.write_bytes(data[first:] + data[:first])
        result = run(runner, root, "verify-chain", expect=1)
        payload = json.loads(result.stderr_bytes)  # one JSON object, nothing else
        assert payload["error"] == "chain_invalid"
        assert payload["first_bad_height"] == 0
        assert "height 0" in payload["message"]
        assert result.stderr_bytes == (
            b'{"error": "chain_invalid", "message": "chain fails verification at height 0", '
            b'"first_bad_height": 0}\n')


class TestErrorOutput:
    """Error output that carries details, byte for byte."""

    def test_all_replicas_down(self, runner, purchased, tmp_path):
        root = _copy(purchased, tmp_path)
        for i in range(5):
            run(runner, root, "host", "fail", f"h{i}")
        result = run(runner, root, "play", purchased.skylink, str(tmp_path / "o.bin"),
                     expect=1)
        assert result.stderr_bytes == (
            b'{"error": "all_replicas_down", "message": "no live replica holds chunk 0 '
            b'(0 reachable)", "chunk_index": 0}\n')

    def test_rights_denied(self, runner, root, tmp_path):
        _, skylink = bootstrap(runner, root, tmp_path, size=20_000)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        run(runner, root, "buy", skylink, "--max-uses", "1")
        run(runner, root, "play", skylink, str(tmp_path / "o.bin"))
        result = run(runner, root, "play", skylink, str(tmp_path / "o.bin"), expect=1)
        assert result.stderr_bytes == (
            b'{"error": "rights_denied", "message": "rights denied: UsesExhausted", '
            b'"reason": "UsesExhausted"}\n')


class TestBlocksBuiltOnRead:
    """Every command loads and checks the whole chain, but builds a
    ``Block`` only for the blocks it reads."""

    def test_commands_build_only_the_blocks_they_read(self, runner, purchased, tmp_path,
                                                       monkeypatch):
        root = _copy(purchased, tmp_path)
        for _ in range(2):
            run(runner, root, "buy", purchased.skylink)
        built = []
        init = ledger.Block.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["height"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(ledger.Block, "__init__", counting_init)
        out = str(tmp_path / "o.bin")
        for args, heights in [
            (["login", "alice-consumer", "--password", PASSWORD], []),
            (["buy", purchased.skylink], [3]),  # the block it mines
            (["play", purchased.skylink, out], []),
            (["host", "list"], []),
            (["verify-chain"], [0, 1, 2, 3]),  # each stored block, once
        ]:
            built.clear()
            run(runner, root, *args)
            assert built == heights, args


def _src_env(**extra) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=src, **extra)


# A child that imports the CLI, says so, and runs its command once told to.
_RACER = """
import sys
from skyvault.cli import main
print("ready", flush=True)
sys.stdin.readline()
main(sys.argv[1:], prog_name="skyvault")
"""


def _race(root, commands: list[list[str]]) -> list[tuple[int, str, str]]:
    """Run each command in its own process, all starting at once.

    Imports take most of a cold command's time, so the children start
    only when every one has imported: their loads and saves then overlap.
    Returns (exit code, stdout, stderr) per command.
    """
    procs = [subprocess.Popen(
        [sys.executable, "-c", _RACER, "--state", str(root), *command],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_src_env()) for command in commands]
    try:
        for proc in procs:
            assert proc.stdout.readline() == "ready\n", proc.stderr.read()
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        outputs = [proc.communicate(timeout=120) for proc in procs]
        return [(proc.returncode, out, err)
                for proc, (out, err) in zip(procs, outputs)]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestConcurrentCommands:
    def test_parallel_plays_spend_the_budget_exactly(self, runner, root, tmp_path):
        media, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
        result = run(runner, root, "buy", skylink, "--max-uses", "2")
        license_id = bytes.fromhex(re.search(r"license ([0-9a-f]+)", result.output)[1])

        results = _race(root, [["play", skylink, str(tmp_path / f"out{i}.bin")]
                               for i in range(6)])
        played = [i for i, (code, _, _) in enumerate(results) if code == 0]
        assert len(played) == 2, results
        for i in played:
            assert (tmp_path / f"out{i}.bin").read_bytes() == media
        for code, _, err in results:
            if code != 0:
                assert json.loads(err)["reason"] == "UsesExhausted", err
        assert StateDirectory(root).load_license(license_id).uses_consumed == 2

    def test_parallel_buys_extend_one_chain(self, runner, root, tmp_path):
        _, skylink = bootstrap(runner, root, tmp_path)
        run(runner, root, "login", "alice-consumer", "--password", PASSWORD)

        results = _race(root, [["buy", skylink]] * 4)
        assert [code for code, _, _ in results] == [0] * 4, results
        heights = sorted(int(re.search(r"committed in block (\d+)", out)[1])
                         for _, out, _ in results)
        assert heights == [0, 1, 2, 3]
        assert run(runner, root, "verify-chain").output.strip() == "ok"
        assert len(load_chain(root / "chain.log").blocks) == 4


class TestColdStart:
    def test_cli_import_leaves_out_http_stack(self):
        # Only serve needs the HTTP server; every other cold command would
        # pay for loading it. The value types generate no code, so no
        # dataclasses either. The layer modules must all stay loaded.
        code = "import json, sys, skyvault.cli; print(json.dumps(sorted(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                             capture_output=True, text=True, check=True)
        loaded = set(json.loads(out.stdout))
        heavy = {"http.server", "ssl", "email.parser", "dataclasses",
                 "cryptography.hazmat.primitives.serialization.ssh"}
        assert not heavy & loaded
        layers = {f"skyvault.{name}" for name in (
            "cli", "state", "storage", "crypto", "ledger", "licensing",
            "identity", "service", "hls")}
        assert layers <= loaded


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(url, data=json.dumps(payload).encode(),
                                     method="POST")
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


@contextlib.contextmanager
def _serving(root):
    """``skyvault serve`` on ROOT at an ephemeral port: yields the process
    and its URL once it has printed its banner, and stops it after."""
    with subprocess.Popen(
            [sys.executable, "-m", "skyvault", "--state", str(root), "serve",
             "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_src_env(PYTHONUNBUFFERED="1")) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, "serve printed no banner within 30 s"
            banner = proc.stdout.readline()
            assert banner.startswith("Serving identity API on "), banner
            yield proc, banner.split(" on ", 1)[1].strip()
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise


def _http_login(url: str, id: str, keypair) -> dict:
    """Log ID in over HTTP; returns the session's JSON."""
    begin = _post(url + "/auth/begin", {"id": id})
    response = solve_challenge(Envelope.from_bytes(b64u_decode(begin["sealed_nonce"])),
                               keypair.private_key, derive_credential(id, PASSWORD).verifier)
    return _post(url + "/auth/complete", {"challenge_id": begin["challenge_id"],
                                          "response": b64u(response.value)})


def _peak_rss_kib(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise AssertionError("no VmHWM (Linux only)")


class TestServe:
    def test_registration_saved_while_serving(self, runner, root):
        run(runner, root, "init")
        with _serving(root) as (proc, url):
            self._check_serving(proc, url, StateDirectory(root))

    def test_shutdown_keeps_other_commands_writes(self, runner, root):
        run(runner, root, "init")
        state = StateDirectory(root)
        with _serving(root) as (proc, url):
            self._check_serving(proc, url, state)
            run(runner, root, "register", "alice-consumer", "--password", PASSWORD)
            run(runner, root, "login", "alice-consumer", "--password", PASSWORD)
            run(runner, root, "host", "fail", "h1")
        assert proc.returncode == 0, proc.stderr.read()
        assert "h1\tdown" in run(runner, root, "host", "list").output
        assert load_world(root).identity.validate_session(
            state.load_login().token) == "alice-consumer"
        assert [a.id for a in state.load_accounts()] == ["alice-consumer", "carol-viewer"]

    def test_token_outlives_a_killed_server(self, runner, root, tmp_path):
        _, skylink = bootstrap(runner, root, tmp_path, size=20_000)
        keypair = StateDirectory(root).load_keypair("alice-consumer")
        with _serving(root) as (proc, url):
            session = _http_login(url, "alice-consumer", keypair)
            proc.kill()
            proc.wait(timeout=10)
        StateDirectory(root).save_login(SessionToken.from_json(session))
        result = run(runner, root, "buy", skylink)
        assert "committed in block 0" in result.output

    def test_register_refuses_an_id_taken_since_start(self, runner, root):
        run(runner, root, "init")
        account_file = StateDirectory(root).accounts_dir / "dave-viewer.json"
        with _serving(root) as (proc, url):
            run(runner, root, "register", "dave-viewer", "--password", PASSWORD)
            saved = account_file.read_bytes()
            with pytest.raises(urllib.error.HTTPError) as refused:
                _post(url + "/register", {
                    "id": "dave-viewer", "password": "another password",
                    "public_key": b64u(generate_keypair().public_key)})
            assert refused.value.code == 409
            assert json.loads(refused.value.read())["error"] == "duplicate_id"
        assert proc.returncode == 0, proc.stderr.read()
        assert account_file.read_bytes() == saved
        run(runner, root, "login", "dave-viewer", "--password", PASSWORD)

    def test_busy_address_is_a_json_error(self, runner, root):
        run(runner, root, "init")
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "skyvault", "--state", str(root), "serve",
                 "--bind", f"127.0.0.1:{port}"],
                capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        payload = json.loads(proc.stderr)  # one JSON object, nothing else
        assert payload["error"] == "bind_failed"
        assert f"127.0.0.1:{port}" in payload["message"]

    def test_memory_does_not_grow_with_stored_bytes(self, runner, tmp_path):
        # serve reads the accounts and the session key only, never the fragments.
        peaks = []
        for stored in (0, 8 << 20):
            root = tmp_path / f"state-{stored}"
            run(runner, root, "init")
            if stored:
                run(runner, root, "register", "studio-prime", "--password", PASSWORD)
                media = tmp_path / "media.bin"
                media.write_bytes(os.urandom(stored))
                run(runner, root, "login", "studio-prime", "--password", PASSWORD)
                run(runner, root, "upload", str(media))
            with _serving(root) as (proc, url):
                _post(url + "/register", {
                    "id": "carol-viewer", "password": PASSWORD,
                    "public_key": b64u(generate_keypair().public_key)})
                peaks.append(_peak_rss_kib(proc.pid))
        assert abs(peaks[1] - peaks[0]) < 5 * 1024, peaks

    @staticmethod
    def _check_serving(proc, url, state):
        keypair = generate_keypair()
        _post(url + "/register", {"id": "carol-viewer", "password": PASSWORD,
                                  "public_key": b64u(keypair.public_key)})
        assert (state.accounts_dir / "carol-viewer.json").is_file()
        assert [a.id for a in state.load_accounts()] == ["carol-viewer"]
        assert state.load_accounts()[0].public_key == keypair.public_key

        # A login writes nothing while the server runs.
        before = file_stats(state.root)
        session = _http_login(url, "carol-viewer", keypair)
        assert session["account_id"] == "carol-viewer"
        assert file_stats(state.root) == before
        assert proc.poll() is None


class TestQuickStart:
    def test_readme_quick_start_runs(self, runner, tmp_path, monkeypatch):
        """Every command of README's "Quick start (CLI)" block exits 0, with
        each ``sia://...`` replaced by the skylink that ``upload`` printed."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Quick start (CLI)")[1].split("```sh\n")[1].split("```")[0]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "movie.bin").write_bytes(os.urandom(300_000))
        env, skylink, ran = {}, None, []
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if not words:
                continue
            if words[0] == "export":
                name, _, value = words[1].partition("=")
                env[name] = value
                continue
            assert words[0] == "skyvault", line
            args = [skylink if word == "sia://..." else word for word in words[1:]]
            result = runner.invoke(main, args, env=env, catch_exceptions=False)
            assert result.exit_code == 0, (line, result.output, result.stderr_bytes)
            if args[0] == "upload":
                skylink = result.output.split("Skylink: ")[1].strip()
            ran.append(args[0])
        assert {"init", "login", "upload", "publish", "buy", "play", "download",
                "hls-package"} <= set(ran)
        assert (tmp_path / "demo-state" / "config").is_file()
