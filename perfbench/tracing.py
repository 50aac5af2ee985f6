"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from this directory, around calls into pirlab's
public functions: either directly (``Tracer.span``), by swapping a module
attribute for a wrapper for the duration of the traced phase
(``Tracer.patch``), or by handing pirlab a scheme whose codecs, ``alpha`` or
ring are counting proxies made with ``dataclasses.replace``.  Nothing under
``src/`` is modified.

A span is ``(id, name, start_ns, end_ns, parent_id, request_id, tag)``.
Spans nest through a per-thread stack.  A span opened on a thread with an
empty stack (a pool thread running one server's query inside
``client_retrieve``) takes as parent the innermost span open on the thread
that started the request.  Sibling spans from pool threads can overlap, so
self time subtracts the union of the children's intervals, not their sum.
"""

from __future__ import annotations

import functools
import itertools
import json
import socket
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.captured_queries: list[bytes] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.request_id: int | None = None
        self._request_stack: list[int] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        stack = self._stack()
        outer = stack or self._request_stack
        parent = outer[-1] if outer else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.request_id, tag)
            )

    @contextmanager
    def request(self, request_id: int, tag: str | None = None):
        """Root span of one closed-loop request; resets per-request captures.
        Spans recorded after it closes keep its request id until the next."""
        self.request_id = request_id
        self.captured_queries = []
        self._request_stack = self._stack()
        try:
            with self.span("bench.request", tag) as root:
                yield root
        finally:
            self._request_stack = []

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Swap ``owner.attr`` until ``restore``; ``owner`` is a module or class."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived views -----------------------------------------------------

    def self_times_ns(self) -> dict[int, int]:
        """Span id -> duration minus the union of its direct children's
        intervals (children on pool threads may overlap each other)."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _, _ in self.spans:
            covered = 0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and self time in milliseconds."""
        self_ns = self.self_times_ns()
        table: dict[str, dict] = {}
        for sid, name, start, end, _, _, _ in self.spans:
            row = table.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += self_ns[sid] / 1e6
        return table

    def dump(self, path) -> None:
        """Write spans (one compact row each) and the summary table."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["id", "name", "start_ns", "end_ns",
                                    "parent", "request", "tag"],
                    "spans": self.spans,
                    "summary": self.summary(),
                },
                fh,
                separators=(",", ":"),
            )


class TracedCodec:
    """Codec proxy: encode/decode become spans; encoded queries are kept so
    the benchmark can replay them through ``ServerNode.answer_payload``."""

    def __init__(self, codec, tracer: Tracer, encode_name: str, decode_name: str,
                 capture: bool = False):
        self._codec = codec
        self._tracer = tracer
        self._encode_name = encode_name
        self._decode_name = decode_name
        self._capture = capture

    def __getattr__(self, attr):
        return getattr(self._codec, attr)

    def encode(self, values):
        with self._tracer.span(self._encode_name):
            data = self._codec.encode(values)
        if self._capture:
            self._tracer.captured_queries.append(data)
        return data

    def decode(self, data):
        with self._tracer.span(self._decode_name):
            return self._codec.decode(data)


class CountingRing:
    """Ring proxy that counts every method call made on it."""

    def __init__(self, ring):
        self._ring = ring
        self.calls = 0

    def __getattr__(self, attr):
        value = getattr(self._ring, attr)
        if not callable(value):
            return value

        def counted(*args):
            self.calls += 1
            return value(*args)

        return counted


class CountingCallable:
    def __init__(self, fn):
        self._fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self._fn(*args)


class CountingSocket:
    """Client socket proxy: counts every byte sent and received, and marks
    when its connect began so the handshake can be timed."""

    def __init__(self, sock: socket.socket, tracer: Tracer, connect_start: float):
        self._sock = sock
        self._tracer = tracer
        self.connect_start = connect_start
        self.bytes_sent = 0
        self.bytes_received = 0

    def __getattr__(self, attr):
        return getattr(self._sock, attr)

    def sendall(self, data):
        self._sock.sendall(data)
        self.bytes_sent += len(data)

    def recv(self, bufsize):
        data = self._sock.recv(bufsize)
        self.bytes_received += len(data)
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tracer.sample("wire_bytes", self.bytes_sent + self.bytes_received)
        self._sock.close()
        return False


class SocketModule:
    """Stands in for the ``socket`` module inside ``pirlab.sim`` so that
    every client connection is a ``CountingSocket``."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(socket, attr)

    def create_connection(self, *args, **kwargs):
        start = time.perf_counter()
        with self._tracer.span("sim.connect"):
            sock = socket.create_connection(*args, **kwargs)
        self._tracer.sample("connections", 1)
        return CountingSocket(sock, self._tracer, start)
