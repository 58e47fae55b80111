"""The benchmark's tracer still finds every span its report reads.

``perfbench/run.py`` reads per-layer times by span name. A name that a
refactor drops is not an error there: ``Profile.ms`` reads it as 0 ms, or
a hook that calls the original crashes the traced run. So every name it
reads must be among the functions ``Tracer.install`` wraps.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every span name perfbench/run.py reads, and the one its download hook calls.
SPAN_NAMES = {
    "state.load_world",
    "state.save_world",
    "state.StateDirectory.load_licenses",
    "ledger.load_chain",
    "ledger.Chain.mine",
    "ledger.Chain.submit",
    "ledger.Chain.verify",
    "storage.upload",
    "storage.download",
    "storage.download_with_key",
    "storage.Host.fetch",
    "storage.StorageNetwork.lookup",
    "licensing.execute_purchase",
    "licensing.redeem_license",
    "identity.IdentityService.begin_auth",
    "identity.IdentityService.complete_auth",
    "identity.IdentityService.validate_session",
    "identity.solve_challenge",
    "hls.package",
    "hls.write_package",
    "crypto.seal",
    "crypto.open_envelope",
    "crypto.digest",
    "crypto.sym_encrypt",
    "crypto.sym_decrypt",
    "crypto.sign",
    "crypto.verify",
    "crypto.derive_credential",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_the_report_reads_is_wrapped():
    assert len(SPAN_NAMES) == 28
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert SPAN_NAMES - tracer.originals.keys() == set()
    finally:
        tracer.uninstall()
