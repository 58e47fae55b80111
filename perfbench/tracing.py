"""Spans recorded from outside the program, for the traced replay.

``Tracer.install`` replaces every public function of each layer module
(``cli``, ``state``, ``storage``, ``crypto``, ``ledger``, ``licensing``,
``identity``, ``service``, ``hls``) and every public method of the
layers' stateful classes with a wrapper, in every ``skyvault`` module
namespace that holds it, so calls between modules are seen too.
``uninstall`` puts the originals back. Value types' codecs (``to_bytes``,
``from_json`` and the like) and ``wire`` are not wrapped: their time
counts in their callers, as does a handful of per-nonce and per-segment
encoders listed in ``INLINE``. The files the CLI itself reads and writes
(upload input, download and play output, the media ``hls-package``
reads) are traced through an ``open`` put into the ``cli`` namespace.

A span is ``(id, name, start_ns, end_ns, parent_id, op_id)``. Spans stay in
per-thread lists in memory and are written out once, by ``dump``. A
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "state", "storage", "crypto", "ledger", "licensing",
          "identity", "service", "hls")
STATEFUL_CLASSES = {
    "state": ("StateDirectory",),
    "storage": ("Host", "StorageNetwork"),
    "ledger": ("Chain",),
    "identity": ("IdentityService",),
    "service": ("IdentityHttpServer",),
}
INLINE = {"ledger.leading_zero_bits", "ledger.block_header_bytes",
          "storage.chunk_nonce", "hls.sequence_iv", "hls.segment_name"}


_ABSENT = object()  # marks a patched attribute that did not exist before


def _proc_io() -> tuple[int, int]:
    """(rchar, wchar) of this process."""
    with open("/proc/self/io", "rb") as handle:
        lines = handle.read().split(b"\n")
    return int(lines[0].split()[1]), int(lines[1].split()[1])


class _ThreadState:
    __slots__ = ("stack", "op", "state_depth", "spans", "counters")

    def __init__(self):
        self.stack: list[int] = []
        self.op = -1
        self.state_depth = 0
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)


class _Local(threading.local):
    """Gives each thread its own ``_ThreadState`` and registers it."""

    def __init__(self, states: list):
        self.state = _ThreadState()
        states.append(self.state)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._states: list[_ThreadState] = []
        self._local = _Local(self._states)
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def op(self, name: str):
        """Root span of one user operation; its id tags every span below it."""
        local = self._local.state
        span = next(self._ids)
        local.op = span
        local.stack.append(span)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            local.stack.pop()
            local.spans.append((span, self.name_id(name), start, end, -1, span))
            local.op = -1

    def _wrap(self, fn, name: str, hook=None, measure_io: bool = False):
        name_id = self.name_id(name)
        thread_local = self._local
        ids = self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            local = thread_local.state
            stack = local.stack
            span = next(ids)
            stack.append(span)
            io_before = None
            if measure_io:
                if local.state_depth == 0:
                    io_before = _proc_io()
                local.state_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.spans.append((span, name_id, start, end, stack[-1] if stack else -1,
                                    local.op))
                if measure_io:
                    local.state_depth -= 1
                    if io_before is not None:
                        rchar, wchar = _proc_io()
                        local.counters["state_rchar"] += rchar - io_before[0]
                        local.counters["state_wchar"] += wchar - io_before[1]
            if hook is not None:
                hook(local.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self):
        import skyvault.cli  # noqa: F401  (imports every layer module)
        hooks = self._hooks()
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"skyvault.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in INLINE
                        or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                self.originals[name] = value
                wrappers[id(value)] = self._wrap(value, name, hooks.get(name),
                                                 measure_io=layer == "state")
            for class_name in STATEFUL_CLASSES.get(layer, ()):
                cls = getattr(module, class_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{class_name}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        self.originals[name] = raw.__func__
                        wrapped = type(raw)(self._wrap(raw.__func__, name, hooks.get(name),
                                                       measure_io=layer == "state"))
                    elif inspect.isfunction(raw):
                        self.originals[name] = raw
                        wrapped = self._wrap(raw, name, hooks.get(name),
                                             measure_io=layer == "state")
                    else:
                        continue
                    self._patch(cls, attr, wrapped)
        for key, namespace in sorted(sys.modules.items()):
            if key == "skyvault" or key.startswith("skyvault."):
                for attr, value in list(vars(namespace).items()):
                    if id(value) in wrappers:
                        self._patch(namespace, attr, wrappers[id(value)])
        self._patch(sys.modules["skyvault.cli"], "open", self._traced_open())

    def _traced_open(self):
        """An ``open`` for the ``cli`` module, which reads and writes the
        user's files itself: the open, each read and write and the close
        record a ``cli.file_io`` span, so that this I/O is not untraced."""
        io_call = self._wrap(lambda fn, *args, **kwargs: fn(*args, **kwargs), "cli.file_io")

        class TracedFile:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return io_call(self._handle.__exit__, *exc)

            def read(self, *args):
                return io_call(self._handle.read, *args)

            def write(self, data):
                return io_call(self._handle.write, data)

            def __getattr__(self, attr):
                return getattr(self._handle, attr)

        def traced_open(*args, **kwargs):
            return TracedFile(io_call(open, *args, **kwargs))

        return traced_open

    def _patch(self, owner, attr, wrapped):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr, _ABSENT)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _hooks(self) -> dict:
        """Counters taken from the arguments or result of a few calls."""
        originals = self.originals

        def arg(args, kwargs, index, name):
            return args[index] if len(args) > index else kwargs[name]

        def digest_bytes(counters, args, kwargs, result):
            counters["digest_bytes"] += len(arg(args, kwargs, 0, "data"))

        def encrypted_bytes(counters, args, kwargs, result):
            counters["aead_bytes"] += len(arg(args, kwargs, 2, "plaintext"))

        def decrypted_bytes(counters, args, kwargs, result):
            counters["aead_bytes"] += len(arg(args, kwargs, 2, "ciphertext"))

        def pow_hashes(counters, args, kwargs, result):
            counters["pow_hashes"] += result.nonce + 1
            counters["blocks_mined"] += 1

        def chunks_returned(counters, args, kwargs, result):
            lookup = originals["storage.StorageNetwork.lookup"]
            manifest = lookup(arg(args, kwargs, 1, "network"), arg(args, kwargs, 0, "link"))
            counters["chunks_returned"] += len(manifest.chunk_records)

        return {
            "crypto.digest": digest_bytes,
            "crypto.sym_encrypt": encrypted_bytes,
            "crypto.sym_decrypt": decrypted_bytes,
            "ledger.Chain.mine": pow_hashes,
            "storage.download_with_key": chunks_returned,
        }

    # -- reading back ---------------------------------------------------------

    def spans(self):
        """Yield every recorded span as an (id, name, start, end, parent, op) tuple."""
        for state in self._states:
            yield from state.spans

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for state in self._states:
            for key, value in state.counters.items():
                total[key] += value
        return total

    def dump(self, path: Path):
        """Write every span, one tab-separated line each, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("# span_id\tname\tstart_ns\tend_ns\tparent_id\top_id\n")
            names = self.names
            for span, name, start, end, parent, op in self.spans():
                handle.write(f"{span}\t{names[name]}\t{start}\t{end}\t{parent}\t{op}\n")


class Profile:
    """Per-name inclusive and self times plus per-op groupings of one trace.

    With ``ops_only``, spans outside every op (output checks run between
    ops) are left out; without it, spans of threads that never open an op,
    such as an in-process server's, count too.
    """

    def __init__(self, tracer: Tracer, ops_only: bool):
        names = tracer.names
        rows = tracer.spans
        self.counters = tracer.counters()
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.roots: dict[int, tuple[str, int]] = {}  # op id -> (name, duration)
        self.root_child_ns: dict[int, int] = {}
        self.by_op_kind: dict[tuple[str, str], int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        for span, name, start, end, parent, op in rows():
            if parent != -1:
                child_ns[parent] += end - start
            if parent == -1 and span == op:
                self.roots[op] = (names[name], end - start)
        for span, name, start, end, parent, op in rows():
            duration = end - start
            if span == op:
                self.root_child_ns[op] = child_ns.get(span, 0)
                continue
            if ops_only and op not in self.roots:
                continue
            label = names[name]
            self.total_ns[label] += duration
            self.self_ns[label] += duration - child_ns.get(span, 0)
            self.calls[label] += 1
            if op in self.roots:
                self.by_op_kind[(self.roots[op][0], label)] += duration

    def ms(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def table(self) -> list[dict]:
        return [{"name": name, "calls": self.calls[name],
                 "total_ms": round(self.total_ns[name] / 1e6, 3),
                 "self_ms": round(self.self_ns[name] / 1e6, 3)}
                for name in sorted(self.total_ns, key=lambda n: -self.self_ns[n])]
