"""Multi-server execution: in-process simulation and a TCP transport.

Both transports move exactly the codec-defined payload bytes, so measured
sizes agree bit-for-bit; the TCP framing (a 9-byte header per message plus
the HELLO/CONFIG handshake) is accounted separately.

Wire format: every message is a frame

    magic "PIR1" | msg_type (1 byte) | length (4 bytes LE) | payload

with types QUERY 0x01, ANSWER 0x02, ERROR 0x03, HELLO 0x04, CONFIG 0x05,
and a length of at most MAX_FRAME_PAYLOAD.  A server closes the connection
on any frame longer than its QUERY width or its digest, whichever is more.
A QUERY or ANSWER payload is the scheme's codec output: the values v_j of
the message, all below one radix r, as the little-endian integer
sum_j v_j * r^j, so it carries the message's raw bit count rounded up to
whole bytes once.
A HELLO carries the client's parameter digest; the server answers with a
CONFIG echoing the protocol id and its own digest, which lets mismatched
deployments fail fast without shipping full parameters: the client accepts
only the CONFIG "<protocol> <digest>" of its own scheme.  A wrong digest, or
a QUERY before a matching HELLO, gets ERROR code 3 with the server's digest.
A query the codec rejects gets code 2; any other failure while answering
gets code 4 with just the exception's type name, and the server closes the
connection.  Each frame a server reads must arrive whole within
DEFAULT_TIMEOUT of the moment it starts waiting for it, or the server
closes the connection, so a client that trickles bytes cannot hold a
handler thread; a client holds each reply to its own ``timeout`` the same
way.  Servers are stateless per request and serve concurrent
connections against an immutable database, at most MAX_CONNECTIONS at
once: a server closes a connection past the cap as it accepts it.

A client retrieval is one round in one thread: ``client_retrieve`` opens
its k connections, and every QUERY is on the wire before it reads any
ANSWER, so the k servers work at the same time.

Database files are an 8-byte little-endian length header n, then the n
bits as one little-endian integer of ceil(n / 8) bytes whose bit j is x_j.
``engine.pack_bits`` and ``engine.unpack_bits`` define that bit order; the
padding bits above n must be 0.
"""

from __future__ import annotations

import contextlib
import math
import socket
import socketserver
import struct
import sys
import threading
import time
from dataclasses import InitVar, dataclass, field
from math import log2
from typing import Sequence

from .engine import (
    Prepared,
    Scheme,
    answer,
    bit_string,
    comm_cost,
    pack_bits,
    prepare,
    query_gen,
    reconstruct,
    unpack_bits,
)
from .errors import (
    InconsistentAnswer,
    MalformedQuery,
    ParamDigestMismatch,
    ParamError,
    Timeout,
    TransportError,
)

MAGIC = b"PIR1"
MSG_QUERY = 0x01
MSG_ANSWER = 0x02
MSG_ERROR = 0x03
MSG_HELLO = 0x04
MSG_CONFIG = 0x05
FRAME_HEADER_LEN = 9
# read_frame's default cap on a declared payload length.
MAX_FRAME_PAYLOAD = 1 << 20

ERR_BAD_FRAME = 1
ERR_BAD_QUERY = 2
ERR_DIGEST = 3
ERR_INTERNAL = 4

DEFAULT_TIMEOUT = 5.0
# Where a server listens, and a client's host for an endpoint without one.
DEFAULT_HOST = "127.0.0.1"
# The most connections, so handler threads, one server holds at once.
MAX_CONNECTIONS = 64
# How often serve_forever checks for shutdown, so the most stop() waits.
POLL_INTERVAL = 0.05


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if not 0 <= msg_type <= 0xFF:
        raise ParamError("message type must fit one byte")
    return MAGIC + bytes([msg_type]) + struct.pack("<I", len(payload)) + payload


def _recv_exact(
    sock: socket.socket, length: int, deadline: float | None, first: bool = False
) -> bytes:
    # With ``first`` these bytes start a frame, so the first recv keeps the
    # socket's timeout, which ends with the deadline.  Every other recv
    # waits only what is left of the deadline.
    chunks = []
    got = 0
    while got < length:
        if deadline is not None and (got or not first):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("frame not complete by its deadline")
            sock.settimeout(remaining)
        chunk = sock.recv(length - got)
        if not chunk:
            began = bool(got) or not first  # else the peer closed between frames
            raise TransportError("connection closed" + " mid-frame" * began)
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket, max_payload: int = MAX_FRAME_PAYLOAD
) -> tuple[int, bytes]:
    """One frame; a declared length above ``max_payload`` raises
    TransportError before any payload byte is read.  On a socket with a
    timeout the whole frame must arrive within that timeout of the call,
    not each ``recv`` on its own, or TimeoutError is raised; the socket's
    timeout is the same afterwards."""
    timeout = sock.gettimeout()
    deadline = time.monotonic() + timeout if timeout else None
    try:
        header = _recv_exact(sock, FRAME_HEADER_LEN, deadline, first=True)
        if header[:4] != MAGIC:
            raise TransportError(f"bad magic {header[:4]!r}")
        msg_type = header[4]
        (length,) = struct.unpack("<I", header[5:9])
        if length > max_payload:
            raise TransportError(f"declared length {length} exceeds {max_payload}")
        payload = _recv_exact(sock, length, deadline)
    finally:
        if deadline is not None and sock.gettimeout() != timeout:
            sock.settimeout(timeout)
    return msg_type, payload


def write_frame(sock: socket.socket, msg_type: int, payload: bytes) -> int:
    frame = encode_frame(msg_type, payload)
    sock.sendall(frame)
    return len(frame)


def param_digest(scheme: Scheme) -> str:
    """Stable hash of the protocol id and every public parameter, including
    derived ingredients, so two independently built endpoints agree iff they
    built the same deployment."""
    text = "\n".join(f"{k} = {scheme.report[k]!r}" for k in sorted(scheme.report))
    text = f"{scheme.name}|n={scheme.n}|k={scheme.k}|t={scheme.t}\n" + text
    # CPython's own SHA-256, as random.py takes its SHA-512: hashlib would
    # load OpenSSL's libcrypto, about 3.6 MB, for a few hundred bytes.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # a build without the module
        from hashlib import sha256
    return sha256(text.encode()).hexdigest()[:16]


@dataclass
class ServerEntry:
    server: int
    query_payload_bytes: int
    answer_payload_bytes: int
    # Framed bytes in each direction over TCP, HELLO/CONFIG included.
    query_framed_bytes: int = 0
    answer_framed_bytes: int = 0
    # TCP: from this server's connect until its ANSWER is read.  In
    # process: the server side, from query decode to answer encode.
    rtt_seconds: float = 0.0


@dataclass
class Transcript:
    """Byte counts per server, payload and framing kept separate.

    aux never appears here: it stays on the client side.
    """

    entries: list[ServerEntry] = field(default_factory=list)

    @property
    def payload_bytes(self) -> int:
        return sum(
            e.query_payload_bytes + e.answer_payload_bytes for e in self.entries
        )

    @property
    def framing_bytes(self) -> int:
        framed = sum(
            e.query_framed_bytes + e.answer_framed_bytes for e in self.entries
        )
        return framed - self.payload_bytes if framed else 0


def run_inprocess(
    scheme: Scheme, x: Sequence[int] | Prepared, i: int, seed: int | None,
    check: bool = True,
) -> tuple[int, Transcript]:
    """Full query/answer/reconstruct round trip with exact byte accounting.

    x, bits or a ``Prepared``, is prepared once, untimed, and k ServerNodes
    answer from it.  ``check`` reads x[i]: ParamError on a ``Prepared``."""
    if check and isinstance(x, Prepared):
        raise ParamError("check reads x[i]; pass the bits, not a Prepared")
    queries, aux = query_gen(scheme, i, seed)
    db = prepare(scheme, x)
    nodes = [ServerNode(j, scheme, db) for j in range(1, scheme.k + 1)]
    transcript = Transcript()
    answers = []
    for node, q in zip(nodes, queries):
        q_bytes = scheme.level_codec.encode(q)
        t0 = time.perf_counter()
        a_bytes = node.answer_payload(q_bytes)
        transcript.entries.append(ServerEntry(
            server=node.server_id, query_payload_bytes=len(q_bytes),
            answer_payload_bytes=len(a_bytes), rtt_seconds=time.perf_counter() - t0,
        ))
        answers.append(scheme.decode_answer(a_bytes))
    bit = reconstruct(scheme, aux, answers)
    if check and bit != x[i]:
        raise AssertionError(f"round trip returned {bit}, database holds {x[i]}")
    return bit, transcript


def _is_int(value) -> bool:
    """An int and not a bool: True would pass for port or server 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ServerNode:
    """One server's whole world: its id, the scheme, and the database (bits
    or a ``Prepared``) as ``engine.prepare`` returns it.  No field holds a
    retrieval index or aux: answers depend on (query, database) only."""

    server_id: int
    scheme: Scheme
    database: InitVar[Sequence[int] | Prepared]
    prepared: Prepared = field(init=False, repr=False, compare=False)

    def __post_init__(self, database):
        if not (_is_int(self.server_id) and 1 <= self.server_id <= self.scheme.k):
            raise ParamError(f"server id must be an int in [1, {self.scheme.k}], "
                             f"got {self.server_id!r}")
        object.__setattr__(self, "prepared", prepare(self.scheme, database))

    def answer_payload(self, query_payload: bytes) -> bytes:
        q = self.scheme.level_codec.decode(query_payload)
        return self.scheme.encode_answer(answer(self.scheme, self.prepared, q))


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        node: ServerNode = self.server.node  # type: ignore[attr-defined]
        digest = self.server.digest  # type: ignore[attr-defined]
        sock = self.request
        # read_frame holds each whole frame to this: a client that trickles
        # bytes cannot hold this thread past it.
        sock.settimeout(DEFAULT_TIMEOUT)
        digest_error = bytes([ERR_DIGEST]) + digest.encode()
        # No frame a client may send is longer than a QUERY or a HELLO.
        max_payload = max(node.scheme.level_codec.nbytes, len(digest))
        # Only a HELLO carrying this server's digest unlocks QUERY.
        greeted = False
        try:
            while True:
                try:
                    msg_type, payload = read_frame(sock, max_payload)
                except TransportError:
                    return
                if msg_type == MSG_HELLO:
                    if payload.decode(errors="replace") != digest:
                        write_frame(sock, MSG_ERROR, digest_error)
                        continue
                    greeted = True
                    reply = f"{node.scheme.name} {digest}".encode()
                    write_frame(sock, MSG_CONFIG, reply)
                elif msg_type == MSG_QUERY:
                    if not greeted:
                        write_frame(sock, MSG_ERROR, digest_error)
                        continue
                    try:
                        out = node.answer_payload(payload)
                    except MalformedQuery as exc:
                        write_frame(
                            sock, MSG_ERROR, bytes([ERR_BAD_QUERY]) + str(exc).encode()
                        )
                        continue
                    except Exception as exc:
                        # The type name only: the message may echo the query.
                        write_frame(
                            sock,
                            MSG_ERROR,
                            bytes([ERR_INTERNAL]) + type(exc).__name__.encode(),
                        )
                        return
                    write_frame(sock, MSG_ANSWER, out)
                else:
                    write_frame(sock, MSG_ERROR, bytes([ERR_BAD_FRAME]))
        except (OSError, socket.timeout):
            return


class PirServer(socketserver.ThreadingTCPServer):
    """A long-running server daemon for one node; stateless per request.

    It holds at most ``MAX_CONNECTIONS`` connections at once, one handler
    thread each, and closes any connection past that as it accepts it.
    Port 0 picks a free port; one that is not an int in [0, 65535] is a
    ParamError."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, node: ServerNode, host: str = DEFAULT_HOST, port: int = 0):
        if not (_is_int(port) and 0 <= port <= 65535):
            raise ParamError(f"port must be an int in [0, 65535], got {port!r}")
        super().__init__((host, port), _Handler)
        self.node = node
        self.digest = param_digest(node.scheme)
        self._thread: threading.Thread | None = None
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def verify_request(self, request, client_address):
        # A connection past the cap is closed at accept.
        return self._slots.acquire(blocking=False)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self):
        self._thread = threading.Thread(
            target=self.serve_forever, args=(POLL_INTERVAL,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        # shutdown() waits for serve_forever to return, so on a server that
        # was never started it would wait forever.
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=2)
        self.server_close()


@contextlib.contextmanager
def _socket_errors(host: str, port: int):
    """A socket or frame error on a connected server becomes a typed error
    naming it: Timeout for a timeout, TransportError for any other."""
    try:
        yield
    except TimeoutError as exc:  # itself an OSError, so caught first
        raise Timeout(f"server {host}:{port} timed out") from exc
    except (OSError, TransportError) as exc:
        raise TransportError(f"server {host}:{port}: {exc}") from exc


def _read_reply(sock, endpoint, digest: str, expected: int) -> bytes:
    """The payload of the next frame, which must be of type ``expected``; an
    ERROR frame or a socket error becomes the matching typed exception."""
    host, port = endpoint
    with _socket_errors(host, port):
        msg_type, payload = read_frame(sock)
    if msg_type == MSG_ERROR:
        code = payload[0] if payload else 0
        # The payload comes from the server: undecodable bytes are replaced.
        text = payload[1:].decode(errors="replace")
        if code == ERR_DIGEST:
            raise ParamDigestMismatch(
                f"server {host}:{port} reports digest {text!r}, client has {digest!r}"
            )
        raise TransportError(f"server {host}:{port} error code {code}: {text}")
    if msg_type != expected:
        raise TransportError(
            f"server {host}:{port} sent type {msg_type}, expected {expected}"
        )
    return payload


def client_retrieve(
    endpoints: Sequence[tuple[str, int]],
    scheme: Scheme,
    i: int,
    seed: int | None,
    timeout: float = DEFAULT_TIMEOUT,
) -> tuple[int, Transcript]:
    """One retrieval in one thread, over k fresh connections.

    The connects run one after another, each HELLO sent as its connection
    opens: k connect round trips instead of one, tens of microseconds on
    loopback.  Then the k CONFIGs are read, the k QUERYs sent and the k
    ANSWERs read, in server order, so the servers answer at the same time.
    No QUERY goes before its CONFIG: a mismatched server may close on the
    longer frame and lose its digest error.  A CONFIG other than this
    scheme's name and digest ends in a ParamDigestMismatch naming the
    server.  ``timeout`` bounds each connect and each whole frame read; it
    must be a positive int or float no larger than
    ``threading.TIMEOUT_MAX`` (a larger one overflows the platform's time
    in the connect).  Every socket error ends in a Timeout or
    TransportError naming the server, and so does an ANSWER
    payload that the answer codec rejects.  Answers that combine to neither
    0 nor omega end in a TransportError naming all k servers, as no one can
    be blamed.  Seed None draws fresh randomness for every retrieval.  The
    links must be private: whoever reads all k sees more than t servers
    do, and so the k endpoints must be k distinct servers, each port an int
    in [1, 65535]: ParamError otherwise, before any query or connection.
    Hosts are compared as written, so ``localhost`` and ``127.0.0.1``
    naming one server is not caught.
    """
    number = isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
    # The comparisons are exact for an int of any size, where isfinite overflows.
    if not (number and 0 < timeout < math.inf):
        raise ParamError(f"timeout must be a finite number > 0, got {timeout!r}")
    if timeout > threading.TIMEOUT_MAX:
        raise ParamError(f"timeout must be at most threading.TIMEOUT_MAX = "
                         f"{threading.TIMEOUT_MAX:g} s, got {timeout!r}")
    if len(endpoints) != scheme.k:
        raise ParamError(
            f"protocol needs exactly {scheme.k} endpoints, got {len(endpoints)}"
        )
    for j, (host, port) in enumerate(endpoints):
        if not (_is_int(port) and 1 <= port <= 65535):
            raise ParamError(
                f"endpoint {host}:{port!r}: port must be an int in [1, 65535]"
            )
        if (host, port) in map(tuple, endpoints[:j]):
            raise ParamError(f"endpoint {host}:{port} is named twice; "
                             "the k endpoints must be k distinct servers")
    queries, aux = query_gen(scheme, i, seed)
    digest = param_digest(scheme)
    query_bytes = [scheme.level_codec.encode(q) for q in queries]
    transcript = Transcript()
    with contextlib.ExitStack() as stack:
        socks, starts = [], []
        for j, (host, port) in enumerate(endpoints):
            starts.append(time.perf_counter())
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
            except OSError as exc:
                # Refused and timed-out connections both mean "this server is down".
                raise Timeout(f"server {host}:{port} unreachable: {exc}") from exc
            socks.append(stack.enter_context(sock))
            with _socket_errors(host, port):
                sent = write_frame(sock, MSG_HELLO, digest.encode())
            transcript.entries.append(ServerEntry(
                server=j + 1, query_payload_bytes=len(query_bytes[j]),
                answer_payload_bytes=0, query_framed_bytes=sent,
            ))
        expected = f"{scheme.name} {digest}"
        for (host, port), sock, entry in zip(endpoints, socks, transcript.entries):
            config = _read_reply(sock, (host, port), digest, MSG_CONFIG)
            if config != expected.encode():
                raise ParamDigestMismatch(
                    f"server {host}:{port} sent CONFIG "
                    f"{config.decode(errors='replace')!r}, client has {expected!r}"
                )
            entry.answer_framed_bytes = FRAME_HEADER_LEN + len(config)
        for sock, endpoint, q_bytes, entry in zip(
            socks, endpoints, query_bytes, transcript.entries
        ):
            with _socket_errors(*endpoint):
                entry.query_framed_bytes += write_frame(sock, MSG_QUERY, q_bytes)
        answers = []
        for sock, endpoint, entry, t0 in zip(
            socks, endpoints, transcript.entries, starts
        ):
            payload = _read_reply(sock, endpoint, digest, MSG_ANSWER)
            entry.rtt_seconds = time.perf_counter() - t0
            entry.answer_payload_bytes = len(payload)
            entry.answer_framed_bytes += FRAME_HEADER_LEN + len(payload)
            try:
                answers.append(scheme.decode_answer(payload))
            except MalformedQuery as exc:
                host, port = endpoint
                raise TransportError(
                    f"server {host}:{port} sent a malformed answer: {exc}"
                ) from exc
    try:
        return reconstruct(scheme, aux, answers), transcript
    except InconsistentAnswer as exc:
        names = ", ".join(f"{host}:{port}" for host, port in endpoints)
        raise TransportError(f"servers {names} disagree: {exc}") from exc


def save_database(path, x: Sequence[int]) -> None:
    """8-byte LE length header, then the bits packed by ``pack_bits``,
    little-endian: bit j of the data is x[j]."""
    n = len(x)
    value = pack_bits(bit_string(x))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", n) + value.to_bytes((n + 7) // 8, "little"))


def load_database(path) -> bytes:
    """The n bits of a ``save_database`` file as bytes holding one 0 or 1
    per entry, the form ``engine.prepare`` answers from."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8:
        raise ParamError(f"{path}: missing length header")
    (n,) = struct.unpack("<Q", data[:8])
    body = data[8:]
    if len(body) != (n + 7) // 8:
        raise ParamError(f"{path}: expected {(n + 7) // 8} data bytes, got {len(body)}")
    value = int.from_bytes(body, "little")
    if value >> n:
        raise ParamError(f"{path}: padding bits beyond n = {n} are set")
    return unpack_bits(value, n)


def bench(
    build,
    n_values: Sequence[int],
    trials: int = 3,
    seed: int = 0,
    timing: bool = False,
) -> list[dict]:
    """Payload sizes (and optionally times) across a grid of database sizes.

    ``build`` maps n to a Scheme; each database is prepared once.  Sizes
    are database-independent, so each row also carries the closed-form
    prediction and the k^2/(k-1) * log2(n) lower-bound baseline for context.
    """
    # Here, not at the top, so that retrieval alone leaves the registry unloaded.
    from .protocols.registry import predicted_bits

    if trials < 1:
        raise ParamError(f"trials must be >= 1, got {trials}")
    rows = []
    for n in n_values:
        scheme = build(n)
        cost = comm_cost(scheme)
        x = bytes((j * 2654435761 >> 7) & 1 for j in range(n))
        db = prepare(scheme, x)
        answer_time = 0.0
        total_time = 0.0
        for trial in range(trials):
            i = (trial * 7919) % n
            t0 = time.perf_counter()
            bit, transcript = run_inprocess(scheme, db, i, seed + trial, check=False)
            total_time += time.perf_counter() - t0
            if bit != x[i]:
                msg = f"round trip returned {bit}, database holds {x[i]}"
                raise AssertionError(msg)
            answer_time += sum(e.rtt_seconds for e in transcript.entries)
        row = {
            "protocol": scheme.name,
            "n": n,
            "k": scheme.k,
            "payload_bytes": cost.payload_bytes,
            "raw_bits": round(cost.raw_bits, 3),
            "predicted_bits": round(predicted_bits(scheme), 3),
            "lower_bound_bits": round(
                scheme.k**2 / (scheme.k - 1) * log2(n) if n > 1 else 0.0, 3
            ),
        }
        if timing:
            row["server_time_s"] = round(answer_time / trials, 6)
            row["client_time_s"] = round(total_time / trials, 6)
        rows.append(row)
    return rows
