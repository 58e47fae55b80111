"""skyvault's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload storefront|archive|http_login \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``
and keeps its state under ``.bench_work/`` (removed at exit) and its span
files and summaries under ``.bench_out/``.

``--trace 0`` drives the program from outside, as its users do: cold
``python -m skyvault`` processes for ``storefront`` and ``archive``, and a
``skyvault serve`` process over HTTP for ``http_login``. It reports the
end-to-end metrics. ``--trace 1`` is the traced replay: the same seeded
operations run in this process with every layer's public functions
wrapped (see ``tracing.py``), and it reports the per-layer metrics.

On ``storefront`` and ``archive`` the gated times (``op_p50_ms``,
``op_p80_ms``, ``ops_per_s``, ``setup_s``) are scaled to a reference
machine speed, gauged by a fixed probe program that runs beside the
commands (``common.SpeedProbe``); on ``http_login``, whose logins wait on
TCP timers, only ``setup_s`` is. The issue metrics printed above the
result stay as measured.

Every run builds a fresh state from the seed, checks every output, and
prints human-readable lines followed, on the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import common
from common import (OUT, WORK, ColdCli, InProcessCli, Tally, fresh_dir, median,
                    percentile, run_op, run_ops, work_dir)

# Set-ups per end-to-end run; setup_s is their median. The storefront's
# 1,000 purchases take seconds, the other two set-ups well under one.
SETUP_REPS = {"storefront": 3, "archive": 13, "http_login": 13}
# Seconds of measuring time per speed probe. http_login scales only its
# set-up, so it needs fewer.
PROBE_EVERY_S = {"storefront": 1.5, "archive": 1.5, "http_login": 3.0}
COLD_SHARE = 0.45   # of --seconds spent on cold commands in a traced run
TRACED_SHARE = 0.5  # of --seconds spent on traced logins in http_login

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p80_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.startup_ms": "ms",
    "cli.untraced_share": "ratio",
    "state.load_world_ms": "ms",
    "state.save_world_ms": "ms",
    "state.read_bytes_per_cmd": "B",
    "state.write_bytes_per_cmd": "B",
    "state.write_amp": "ratio",
    "state.load_licenses_ms": "ms",
    "state.hls_load_world_ms": "ms",
    "ledger.load_chain_ms": "ms",
    "ledger.mine_ms": "ms",
    "ledger.hashes_per_block": "count",
    "ledger.submit_ms": "ms",
    "ledger.verify_ms": "ms",
    "crypto.seal_ms": "ms",
    "crypto.seal_calls": "count",
    "crypto.open_envelope_ms": "ms",
    "crypto.digest_ms": "ms",
    "crypto.hashed_bytes_per_user_byte": "ratio",
    "crypto.aead_ms": "ms",
    "crypto.aead_bytes": "B",
    "crypto.sign_verify_ms": "ms",
    "storage.upload_ms": "ms",
    "storage.download_ms": "ms",
    "storage.fetch_attempts_per_chunk": "ratio",
    "storage.stored_bytes_per_user_byte": "ratio",
    "licensing.execute_purchase_ms": "ms",
    "licensing.redeem_license_ms": "ms",
    "identity.begin_auth_ms": "ms",
    "identity.complete_auth_ms": "ms",
    "service.overhead_ms": "ms",
    "hls.package_ms": "ms",
    "hls.write_package_ms": "ms",
    "trace.overhead_share": "ratio",
}
COVERAGE_FLOOR = 0.9


def state_shape(state_dir: Path) -> dict:
    """Stored bytes, fragment bytes, chain height, accounts and licenses."""
    from skyvault import ledger, state, storage
    directory = state.StateDirectory(state_dir)
    stored = sum(storage.FileManifest.from_bytes(path.read_bytes()).file_size
                 for path in directory.manifests_dir.glob("*.manifest"))
    fragments = sum(path.stat().st_size for path in directory.hosts_dir.glob("*/*")
                    if path.is_file())
    chain = ledger.load_chain(directory.chain_path,
                              difficulty_bits=directory.load_config().pow_difficulty)
    accounts = sum(1 for path in directory.accounts_dir.glob("*.json")
                   if path.name != "sessions.json")
    licenses = sum(1 for _ in directory.licenses_dir.glob("*.json"))
    return {"stored_bytes": stored, "fragment_bytes": fragments,
            "chain_height": chain.height(), "accounts": accounts, "licenses": licenses}


class SetupTimer:
    """Times ``reps`` builds of the same set-up from the same seed.

    The builds are spread evenly over the measurement: the first, which
    the measurement runs on, before it; the others at equal steps of its
    measuring time, between rounds and off their clock, the last after it.
    Their median then sees the machine over the whole run rather than in
    one burst. ``discard`` releases what a build started before its
    directory goes.
    """

    def __init__(self, build, reps: int, seconds: float, discard=None):
        self.build = build
        self.reps = reps
        self.seconds = seconds
        self.discard = discard or (lambda built: None)
        self.times: list[float] = []

    def _timed(self, directory: Path):
        start = time.perf_counter()
        built = self.build(directory)
        self.times.append(time.perf_counter() - start)
        return built

    def first(self) -> tuple[object, Path]:
        directory = work_dir("setup")
        return self._timed(directory), directory

    def next_due(self) -> float:
        """Measuring time at which the next build is due."""
        return len(self.times) * self.seconds / (self.reps - 1)

    def due(self, measured: float) -> float:
        """Makes the builds due by ``measured`` seconds; returns their wall."""
        start = time.perf_counter()
        while len(self.times) < self.reps and self.next_due() <= measured:
            directory = work_dir("setup")
            self.discard(self._timed(directory))
            shutil.rmtree(directory)
        return time.perf_counter() - start

    def rest(self) -> list[float]:
        self.due(float("inf"))
        return self.times


def ops_per_s(samples) -> float:
    """Median over the run's rounds of each round's successful ops per
    second of its commands' wall, so that one stalled command moves one
    round's figure, not the run's."""
    rounds = {}
    for sample in samples:
        rounds.setdefault(sample.round_no, []).append(sample)
    return median([sum(s.ok for s in chosen) / sum(s.wall_s for s in chosen)
                   for chosen in rounds.values()])


def kind_summary(samples) -> dict:
    kinds = {}
    for sample in samples:
        kinds.setdefault(sample.kind, []).append(sample.wall_s * 1000)
    return {kind: (len(walls), median(walls)) for kind, walls in kinds.items()}


# -- CLI workloads ---------------------------------------------------------------


def cli_end_to_end(workload, seed: int, seconds: float, tally: Tally, report: dict) -> dict:
    inputs = workload.inputs(seed, work_dir("inputs"))
    setups = SetupTimer(lambda d: workload.build(d, seed, inputs), SETUP_REPS[workload.name],
                        seconds)
    setup, _ = setups.first()
    report["state_at_start"] = state_shape(setup.state_dir)
    phase = workload.phase(setup, work_dir("state"), work_dir("scratch"))
    probe = common.SpeedProbe(every_s=PROBE_EVERY_S[workload.name])
    cold = ColdCli(phase.state_dir)
    try:
        samples = run_ops(workload.ops(phase, seed), cold, tally, seconds,
                          pause=lambda measured: setups.due(measured) + probe.due(measured))
    finally:
        cold.close()
    report["speed_probe"] = probe.summary()
    report["scaled"] = ["op_p50_ms", "op_p80_ms", "ops_per_s", "setup_s"]
    report["kinds"] = kind_summary(samples)
    for problem in workload.final_checks(phase):
        tally.fail(problem)
    report["state_at_end"] = state_shape(phase.state_dir)
    setup_times = setups.rest()

    ok = [s for s in samples if s.ok]
    walls = [s.wall_s * 1000 for s in ok]
    by_kind = lambda kind: [s.wall_s * 1000 for s in ok if s.kind == kind]

    def mib_s(kind):
        chosen = [s for s in ok if s.kind == kind]
        wall = sum(s.wall_s for s in chosen)
        return sum(s.user_bytes for s in chosen) / (1 << 20) / wall if wall else 0.0

    rss = cold.peak_rss_kib / 1024
    report["issue_metrics"] = {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "error_rate": (tally.failed / max(tally.attempted, 1), "ratio", tally.attempted),
        "cmd_p50_ms": (percentile(walls, 50), "ms", len(walls)),
        "cmd_p90_ms": (percentile(walls, 90), "ms", len(walls)),
        "login_p50_ms": (median(by_kind("login")), "ms", len(by_kind("login"))),
        "peak_rss_mib": (rss, "MiB", len(samples)),
    }
    if workload.name == "storefront":
        report["issue_metrics"].update({
            "buy_p50_ms": (median(by_kind("buy")), "ms", len(by_kind("buy"))),
            "play_p50_ms": (median(by_kind("play")), "ms", len(by_kind("play"))),
        })
    else:
        report["issue_metrics"].update({
            "host_list_p50_ms": (median(by_kind("host list")), "ms",
                                 len(by_kind("host list"))),
            "upload_mib_s": (mib_s("upload"), "MiB/s", len(by_kind("upload"))),
            "download_mib_s": (mib_s("download"), "MiB/s", len(by_kind("download"))),
            "hls_package_mib_s": (mib_s("hls-package"), "MiB/s",
                                  len(by_kind("hls-package"))),
        })
    # A command's wall is CPU, memory and page-cache work, so the gated
    # times are scaled to the reference speed; the issue metrics are not.
    return {
        "op_p50_ms": probe.scale(percentile(walls, 50)),
        "op_p80_ms": probe.scale(percentile(walls, 80)),
        "ops_per_s": ops_per_s(samples) / probe.scale(1.0),
        "peak_rss_mib": rss,
        "setup_s": probe.scale(median(setup_times)),
    }


def in_span(tracer):
    def around(kind, fn):
        with tracer.op(f"cli.{kind}"):
            return fn()
    return around


def cli_traced(workload, seed: int, seconds: float, tally: Tally, report: dict) -> dict:
    from tracing import Profile, Tracer
    inputs = workload.inputs(seed, work_dir("inputs"))
    setup = workload.build(work_dir("setup"), seed, inputs)
    cold_phase = workload.phase(setup, work_dir("cold"), work_dir("scratch"))
    cold_cli = ColdCli(cold_phase.state_dir)
    try:
        cold = run_ops(workload.ops(cold_phase, seed), cold_cli, tally, COLD_SHARE * seconds)
    finally:
        cold_cli.close()
    count = len(cold)
    for problem in workload.final_checks(cold_phase):
        tally.fail(problem)
    shutil.rmtree(cold_phase.state_dir)

    # The same ops replayed in this process on two copies of the set-up
    # state, alternately with the wrappers on and off, so that the tracing
    # overhead is read from pairs that ran moments apart.
    tracer = Tracer()
    traced_phase = workload.phase(setup, work_dir("traced"), work_dir("scratch-traced"))
    plain_phase = workload.phase(setup, work_dir("plain"), work_dir("scratch-plain"))
    traced_runner = InProcessCli(traced_phase.state_dir, around=in_span(tracer))
    plain_runner = InProcessCli(plain_phase.state_dir)
    traced, plain = [], []
    for traced_op, plain_op, _ in zip(workload.ops(traced_phase, seed),
                                      workload.ops(plain_phase, seed), range(count)):
        tracer.install()
        try:
            traced.append(run_op(traced_op, traced_runner, tally))
        finally:
            tracer.uninstall()
        plain.append(run_op(plain_op, plain_runner, tally))
    for phase in (traced_phase, plain_phase):
        for problem in workload.final_checks(phase):
            tally.fail(problem)
    end_shape = state_shape(traced_phase.state_dir)

    profile = Profile(tracer, ops_only=True)
    tracer.dump(OUT / f"{workload.name}-spans.tsv.gz")
    n = max(len(profile.roots), 1)
    per_op = lambda ms: ms / n
    counters = profile.counters
    uploaded = sum(s.user_bytes for s in traced if s.kind == "upload")
    user_bytes = sum(s.user_bytes for s in traced)
    root_ns = sum(d for _, d in profile.roots.values())
    child_ns = sum(profile.root_child_ns.values())
    coverage = {}
    for op, (name, duration) in profile.roots.items():
        covered, total = coverage.get(name, (0, 0))
        coverage[name] = (covered + profile.root_child_ns[op], total + duration)
    report["coverage"] = {name: covered / total for name, (covered, total)
                          in sorted(coverage.items())}
    for name, share in report["coverage"].items():
        if share < COVERAGE_FLOOR:
            tally.fail(f"span coverage of {name} is {share:.1%}, below {COVERAGE_FLOOR:.0%}")
    hls_ops = sum(1 for name, _ in profile.roots.values() if name == "cli.hls-package")
    report["replayed_ops"] = count
    report["layers"] = profile.table()
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0
    return {
        "cli.startup_ms": (mean([s.wall_s for s in cold]) - mean([s.wall_s for s in plain])) * 1000,
        "cli.untraced_share": 1 - child_ns / root_ns if root_ns else 0.0,
        "state.load_world_ms": per_op(profile.ms("state.load_world")),
        "state.save_world_ms": per_op(profile.ms("state.save_world")),
        "state.read_bytes_per_cmd": counters["state_rchar"] / n,
        "state.write_bytes_per_cmd": counters["state_wchar"] / n,
        "state.write_amp": counters["state_wchar"] / uploaded if uploaded else 0.0,
        "state.load_licenses_ms": per_op(profile.ms("state.StateDirectory.load_licenses")),
        "state.hls_load_world_ms": (profile.by_op_kind[("cli.hls-package", "state.load_world")]
                                    / 1e6 / hls_ops if hls_ops else 0.0),
        "ledger.load_chain_ms": per_op(profile.ms("ledger.load_chain")),
        "ledger.mine_ms": per_op(profile.ms("ledger.Chain.mine")),
        "ledger.hashes_per_block": (counters["pow_hashes"] / counters["blocks_mined"]
                                    if counters["blocks_mined"] else 0.0),
        "ledger.submit_ms": per_op(profile.ms("ledger.Chain.submit")),
        "ledger.verify_ms": per_op(profile.ms("ledger.Chain.verify")),
        **crypto_metrics(profile, n, user_bytes),
        "storage.upload_ms": per_op(profile.self_ms("storage.upload")),
        "storage.download_ms": per_op(profile.self_ms("storage.download")
                                      + profile.self_ms("storage.download_with_key")),
        "storage.fetch_attempts_per_chunk": (profile.calls["storage.Host.fetch"]
                                             / counters["chunks_returned"]
                                             if counters["chunks_returned"] else 0.0),
        "storage.stored_bytes_per_user_byte": (end_shape["fragment_bytes"]
                                               / end_shape["stored_bytes"]
                                               if end_shape["stored_bytes"] else 0.0),
        "licensing.execute_purchase_ms": per_op(profile.ms("licensing.execute_purchase")),
        "licensing.redeem_license_ms": per_op(profile.ms("licensing.redeem_license")),
        "identity.begin_auth_ms": per_op(profile.ms("identity.IdentityService.begin_auth")),
        "identity.complete_auth_ms": per_op(profile.ms("identity.IdentityService.complete_auth")),
        "service.overhead_ms": 0.0,
        "hls.package_ms": per_op(profile.ms("hls.package")),
        "hls.write_package_ms": per_op(profile.ms("hls.write_package")),
        "trace.overhead_share": (sum(s.wall_s for s in traced) / sum(s.wall_s for s in plain) - 1
                                 if plain else 0.0),
    }


def crypto_metrics(profile, n: int, user_bytes: int) -> dict:
    counters = profile.counters
    return {
        "crypto.seal_ms": profile.ms("crypto.seal") / n,
        "crypto.seal_calls": profile.calls["crypto.seal"] / n,
        "crypto.open_envelope_ms": profile.ms("crypto.open_envelope") / n,
        "crypto.digest_ms": profile.ms("crypto.digest") / n,
        "crypto.hashed_bytes_per_user_byte": (counters["digest_bytes"] / user_bytes
                                              if user_bytes else 0.0),
        "crypto.aead_ms": (profile.ms("crypto.sym_encrypt") + profile.ms("crypto.sym_decrypt")) / n,
        "crypto.aead_bytes": counters["aead_bytes"] / n,
        "crypto.sign_verify_ms": (profile.ms("crypto.sign") + profile.ms("crypto.verify")) / n,
    }


# -- http_login -----------------------------------------------------------------


def http_end_to_end(seed: int, seconds: float, tally: Tally, report: dict) -> dict:
    import http_login

    def build(directory):
        accounts = http_login.build(directory, seed)
        return accounts, http_login.Server(directory)

    setups = SetupTimer(build, SETUP_REPS["http_login"], seconds,
                        discard=lambda built: built[1].stop())
    (accounts, server), state_dir = setups.first()
    report["state_at_start"] = state_shape(state_dir)
    logins = http_login.login_order(accounts, seed)
    probe = common.SpeedProbe(every_s=PROBE_EVERY_S["http_login"])
    walls, loop_wall = [], 0.0
    try:
        # The login loop runs in segments with the set-ups and speed probes
        # due between them.
        while loop_wall < seconds:
            setups.due(loop_wall)
            while probe.due(loop_wall):
                pass
            segment, wall = http_login.run_clients(
                server.address, logins, tally, min(setups.next_due(), seconds) - loop_wall)
            walls += segment
            loop_wall += wall
        rss = server.peak_rss_mib()
    finally:
        server.stop()
    report["state_at_end"] = state_shape(state_dir)
    setup_times = setups.rest()
    report["speed_probe"] = probe.summary()
    report["scaled"] = ["setup_s"]
    walls_ms = [w * 1000 for w in walls]
    per_s = len(walls) / loop_wall if loop_wall else 0.0
    report["issue_metrics"] = {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "error_rate": (tally.failed / max(tally.attempted, 1), "ratio", tally.attempted),
        "http_login_per_s": (per_s, "1/s", len(walls)),
        "http_login_p50_ms": (percentile(walls_ms, 50), "ms", len(walls)),
        "http_login_p95_ms": (percentile(walls_ms, 95), "ms", len(walls)),
        "peak_rss_mib": (rss, "MiB", 1),
    }
    # A login waits mostly on TCP timers, not on the machine's speed, so
    # only the set-up is scaled to the reference speed.
    return {
        "op_p50_ms": percentile(walls_ms, 50),
        "op_p80_ms": percentile(walls_ms, 80),
        "ops_per_s": per_s,
        "peak_rss_mib": rss,
        "setup_s": probe.scale(median(setup_times)),
    }


def http_traced(seed: int, seconds: float, tally: Tally, report: dict) -> dict:
    import http_login
    from skyvault import service, state
    from tracing import Profile, Tracer
    setup_dir = work_dir("setup")
    accounts = http_login.build(setup_dir, seed)
    world = state.load_world(setup_dir)
    server = service.IdentityHttpServer(world.identity, port=0)
    server.start()
    tracer = Tracer()
    taken = []

    def recorded(order):
        for account in order:
            taken.append(account)
            yield account

    def in_span(fn):
        with tracer.op("op.login"):
            return fn()

    try:
        tracer.install()
        try:
            _, traced_wall = http_login.run_clients(
                server.address, recorded(http_login.login_order(accounts, seed)), tally,
                TRACED_SHARE * seconds, around=in_span)
        finally:
            tracer.uninstall()
        _, plain_wall = http_login.run_clients(server.address, iter(taken), tally)
    finally:
        server.shutdown()

    profile = Profile(tracer, ops_only=False)
    tracer.dump(OUT / "http_login-spans.tsv.gz")
    n = max(len(profile.roots), 1)
    identity_ms = sum(profile.ms(f"identity.IdentityService.{name}")
                      for name in ("begin_auth", "complete_auth", "validate_session"))
    client_ms = profile.ms("identity.solve_challenge") + profile.ms("crypto.derive_credential")
    mean_login_ms = sum(d for _, d in profile.roots.values()) / 1e6 / n
    report["replayed_ops"] = len(taken)
    report["layers"] = profile.table()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(crypto_metrics(profile, n, 0))
    metrics.update({
        "identity.begin_auth_ms": profile.ms("identity.IdentityService.begin_auth") / n,
        "identity.complete_auth_ms": profile.ms("identity.IdentityService.complete_auth") / n,
        "service.overhead_ms": mean_login_ms - (identity_ms + client_ms) / n,
        "trace.overhead_share": traced_wall / plain_wall - 1 if plain_wall else 0.0,
    })
    return metrics


# -- output ---------------------------------------------------------------------


def print_report(workload: str, trace: bool, report: dict, metrics: dict):
    for line in common.env_header(WORK):
        print(line)
    print(f"# workload {workload}  seed {report['seed']}  seconds {report['seconds']}"
          f"  trace {int(trace)}  top-directory flag on the work directory:"
          f" {'set' if report['spread_directories'] else 'not set'}")
    for key in ("state_at_start", "state_at_end"):
        if key in report:
            print(f"# {key}: " + "  ".join(f"{k} {v}" for k, v in report[key].items()))
    if "speed_probe" in report:
        print(f"# {report['speed_probe']}")
    for kind, (count, p50) in report.get("kinds", {}).items():
        print(f"# command {kind:<14} n={count:<4} p50 {p50:8.1f} ms")
    if "issue_metrics" in report:
        for name, (value, unit, count) in report["issue_metrics"].items():
            print(f"{name:<36} {value:14.4f} {unit:<6} n={count}")
    if "coverage" in report:
        for name, share in report["coverage"].items():
            verdict = "ok" if share >= COVERAGE_FLOOR else "BELOW 90%"
            print(f"# span coverage {name:<20} {share:7.2%}  {verdict}")
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        scaled = "  scaled" if name in report.get("scaled", ()) else ""
        print(f"{name:<36} {value:14.4f} {units[name]}{scaled}")
    for problem in report.get("errors", []):
        print(f"# FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["storefront", "archive", "http_login"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    common.require_source()
    import cli_workloads
    import skyvault.cli  # noqa: F401  (compile and cache every module before timing)

    fresh_dir(WORK)
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    report = {"seed": args.seed, "seconds": args.seconds,
              "spread_directories": common.spread_directories(WORK)}
    try:
        if args.workload == "http_login":
            run = http_traced if args.trace else http_end_to_end
            metrics = run(args.seed, args.seconds, tally, report)
        else:
            workload = {"storefront": cli_workloads.Storefront,
                        "archive": cli_workloads.Archive}[args.workload]()
            run = cli_traced if args.trace else cli_end_to_end
            metrics = run(workload, args.seed, args.seconds, tally, report)
        report["errors"] = tally.errors
        print_report(args.workload, bool(args.trace), report, metrics)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**report, "metrics": metrics}, indent=1, default=str))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
