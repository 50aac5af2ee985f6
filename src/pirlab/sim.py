"""Multi-server execution: in-process simulation and a TCP transport.

Both transports move exactly the codec-defined payload bytes, so measured
sizes agree bit-for-bit; the TCP framing (a 9-byte header per message plus
the HELLO/CONFIG handshake) is accounted separately.

Wire format: every message is a frame

    magic "PIR1" | msg_type (1 byte) | length (4 bytes LE) | payload

with types QUERY 0x01, ANSWER 0x02, ERROR 0x03, HELLO 0x04, CONFIG 0x05,
and a length of at most MAX_FRAME_PAYLOAD.  A server closes the connection
on any frame longer than its QUERY width or its digest, whichever is more.
A QUERY or ANSWER payload is the scheme's codec output: one little-endian
mixed-radix integer holding every value of the message, so it carries the
message's raw bit count rounded up to whole bytes once.
A HELLO carries the client's parameter digest; the server answers with a
CONFIG echoing the protocol id and its own digest, which lets mismatched
deployments fail fast without shipping full parameters.  A wrong digest, or
a QUERY before a matching HELLO, gets ERROR code 3 with the server's digest.
A query the codec rejects gets code 2; any other failure while answering
gets code 4 with just the exception's type name, and the server closes the
connection.  Servers are stateless per request and serve concurrent
connections against an immutable database.

A client retrieval is one round in one thread: ``client_retrieve`` opens
its k connections, and every QUERY is on the wire before it reads any
ANSWER, so the k servers work at the same time.

Database files are raw bit-packed little-endian vectors with an 8-byte
little-endian length header.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from .engine import Scheme, answer, comm_cost, query_gen, reconstruct
from .errors import (
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
# How often serve_forever checks for shutdown, so the most stop() waits.
POLL_INTERVAL = 0.05


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if not 0 <= msg_type <= 0xFF:
        raise ParamError("message type must fit one byte")
    return MAGIC + bytes([msg_type]) + struct.pack("<I", len(payload)) + payload


def _recv_exact(sock: socket.socket, length: int) -> bytes:
    chunks = []
    got = 0
    while got < length:
        chunk = sock.recv(length - got)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket, max_payload: int = MAX_FRAME_PAYLOAD
) -> tuple[int, bytes]:
    """One frame; a declared length above ``max_payload`` raises
    TransportError before any payload byte is read."""
    header = _recv_exact(sock, FRAME_HEADER_LEN)
    if header[:4] != MAGIC:
        raise TransportError(f"bad magic {header[:4]!r}")
    msg_type = header[4]
    (length,) = struct.unpack("<I", header[5:9])
    if length > max_payload:
        raise TransportError(f"declared length {length} exceeds {max_payload}")
    payload = _recv_exact(sock, length) if length else b""
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
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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

    protocol: str
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
    scheme: Scheme, x: Sequence[int], i: int, seed: int | None, check: bool = True
) -> tuple[int, Transcript]:
    """Full query/answer/reconstruct round trip with exact byte accounting."""
    queries, aux = query_gen(scheme, i, seed)
    transcript = Transcript(protocol=scheme.name)
    answers = []
    for j, q in enumerate(queries):
        q_bytes = scheme.level_codec.encode(q)
        # Decode on the "server side" so the wire codec is genuinely exercised.
        t0 = time.perf_counter()
        a = answer(scheme, x, scheme.level_codec.decode(q_bytes))
        a_bytes = scheme.encode_answer(a)
        transcript.entries.append(
            ServerEntry(
                server=j + 1,
                query_payload_bytes=len(q_bytes),
                answer_payload_bytes=len(a_bytes),
                rtt_seconds=time.perf_counter() - t0,
            )
        )
        answers.append(scheme.decode_answer(a_bytes))
    bit = reconstruct(scheme, aux, answers)
    if check and bit != x[i]:
        raise AssertionError(f"round trip returned {bit}, database holds {x[i]}")
    return bit, transcript


@dataclass(frozen=True)
class ServerNode:
    """One server's whole world: its id, the scheme parameters, and the
    database.  There is deliberately no field for a retrieval index or aux;
    a node's behaviour is a function of (query, database) only."""

    server_id: int
    scheme: Scheme
    database: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.server_id <= self.scheme.k:
            raise ParamError(
                f"server id {self.server_id} out of range [1, {self.scheme.k}]"
            )
        if len(self.database) != self.scheme.n:
            raise ParamError("database length does not match the scheme")
        if any(bit not in (0, 1) for bit in self.database):
            raise ParamError("database entries must be bits")

    def answer_payload(self, query_payload: bytes) -> bytes:
        q = self.scheme.level_codec.decode(query_payload)
        a = answer(self.scheme, self.database, q)
        return self.scheme.encode_answer(a)


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        node: ServerNode = self.server.node  # type: ignore[attr-defined]
        digest = self.server.digest  # type: ignore[attr-defined]
        sock = self.request
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
    """A long-running server daemon for one node; stateless per request."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, node: ServerNode, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.node = node
        self.digest = param_digest(node.scheme)
        self._thread: threading.Thread | None = None

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
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2)


def serve(node: ServerNode, host: str = "127.0.0.1", port: int = 0) -> PirServer:
    """Start a server daemon; returns the running server (caller stops it)."""
    return PirServer(node, host, port).start()


def _read_reply(sock, endpoint, digest: str, expected: int) -> bytes:
    """The payload of the next frame, which must be of type ``expected``; an
    ERROR frame or a timeout becomes the matching typed exception."""
    host, port = endpoint
    try:
        msg_type, payload = read_frame(sock)
    except TimeoutError as exc:
        raise Timeout(f"server {host}:{port} timed out") from exc
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
    longer frame and lose its digest error.  ``timeout`` bounds each connect
    and each read; it must be finite and positive.  Seed None draws fresh
    randomness for every retrieval.
    """
    if not (math.isfinite(timeout) and timeout > 0):
        raise ParamError(f"timeout must be finite and > 0, got {timeout!r}")
    if len(endpoints) != scheme.k:
        raise ParamError(
            f"protocol needs exactly {scheme.k} endpoints, got {len(endpoints)}"
        )
    queries, aux = query_gen(scheme, i, seed)
    digest = param_digest(scheme)
    query_bytes = [scheme.level_codec.encode(q) for q in queries]
    transcript = Transcript(protocol=scheme.name)
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
            sent = write_frame(sock, MSG_HELLO, digest.encode())
            transcript.entries.append(ServerEntry(
                server=j + 1, query_payload_bytes=len(query_bytes[j]),
                answer_payload_bytes=0, query_framed_bytes=sent,
            ))
        for sock, endpoint, entry in zip(socks, endpoints, transcript.entries):
            config = _read_reply(sock, endpoint, digest, MSG_CONFIG)
            entry.answer_framed_bytes = FRAME_HEADER_LEN + len(config)
        for sock, q_bytes, entry in zip(socks, query_bytes, transcript.entries):
            entry.query_framed_bytes += write_frame(sock, MSG_QUERY, q_bytes)
        answers = []
        for sock, endpoint, entry, t0 in zip(
            socks, endpoints, transcript.entries, starts
        ):
            payload = _read_reply(sock, endpoint, digest, MSG_ANSWER)
            entry.rtt_seconds = time.perf_counter() - t0
            entry.answer_payload_bytes = len(payload)
            entry.answer_framed_bytes += FRAME_HEADER_LEN + len(payload)
            answers.append(scheme.decode_answer(payload))
    return reconstruct(scheme, aux, answers), transcript


_BITS_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_ASCII_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def save_database(path, x: Sequence[int]) -> None:
    """8-byte LE length header, then bit-packed little-endian data.

    The bits go through one integer: bit j of the data is x[j]."""
    n = len(x)
    try:
        raw = bytes(x)
    except (TypeError, ValueError):
        raise ParamError("database entries must be bits") from None
    if raw.translate(None, b"\x00\x01"):
        raise ParamError("database entries must be bits")
    value = int(b"0" + raw[::-1].translate(_BITS_TO_ASCII), 2)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", n) + value.to_bytes((n + 7) // 8, "little"))


def load_database(path) -> tuple[int, ...]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8:
        raise ParamError(f"{path}: missing length header")
    (n,) = struct.unpack("<Q", data[:8])
    body = data[8:]
    if len(body) != (n + 7) // 8:
        raise ParamError(f"{path}: expected {(n + 7) // 8} data bytes, got {len(body)}")
    if n % 8 and body[-1] >> (n % 8):
        raise ParamError(f"{path}: padding bits beyond n = {n} are set")
    if n == 0:
        return ()
    bits = format(int.from_bytes(body, "little"), f"0{n}b")[::-1]
    return tuple(bits.encode().translate(_ASCII_TO_BITS))


def bench(
    build,
    n_values: Sequence[int],
    trials: int = 3,
    seed: int = 0,
    timing: bool = False,
) -> list[dict]:
    """Payload sizes (and optionally times) across a grid of database sizes.

    ``build`` maps n to a Scheme.  Sizes are database-independent, so each
    row also carries the closed-form prediction and the k^2/(k-1) * log2(n)
    lower-bound baseline for context.
    """
    rows = []
    for idx, n in enumerate(n_values):
        scheme = build(n)
        cost = comm_cost(scheme)
        x = tuple((j * 2654435761 >> 7) & 1 for j in range(n))
        answer_time = 0.0
        total_time = 0.0
        for trial in range(trials):
            i = (trial * 7919) % n
            t0 = time.perf_counter()
            _, transcript = run_inprocess(scheme, x, i, seed + trial)
            total_time += time.perf_counter() - t0
            answer_time += sum(e.rtt_seconds for e in transcript.entries)
        row = {
            "protocol": scheme.name,
            "n": n,
            "k": scheme.k,
            "payload_bytes": cost.payload_bytes,
            "raw_bits": round(cost.raw_bits, 3),
            "predicted_bits": round(cost.raw_bits, 3),
            "lower_bound_bits": round(
                scheme.k**2 / (scheme.k - 1) * math.log2(n) if n > 1 else 0.0, 3
            ),
        }
        if timing:
            row["server_time_s"] = round(answer_time / trials, 6)
            row["client_time_s"] = round(total_time / trials, 6)
        rows.append(row)
    return rows
