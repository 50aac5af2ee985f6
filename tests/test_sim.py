"""Transports: framing, in-process byte accounting, the TCP server/client
pair, database files, and the bench table."""

import dataclasses
import hashlib
import math
import random
import re
import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pirlab import sim
from pirlab.engine import (
    Prepared,
    answer,
    comm_cost,
    prepare,
    query_gen,
    reconstruct,
)
from pirlab.errors import (
    InconsistentAnswer,
    ParamDigestMismatch,
    ParamError,
    Timeout,
    TransportError,
)
from pirlab.protocols.cube import build_cgks
from pirlab.protocols.curve import build_lagrange
from pirlab.protocols.registry import build_named, desk_schemes
from pirlab.protocols.toy import toy_instance
from pirlab.sim import (
    FRAME_HEADER_LEN,
    MAGIC,
    MAX_FRAME_PAYLOAD,
    MSG_ANSWER,
    MSG_CONFIG,
    MSG_ERROR,
    MSG_HELLO,
    MSG_QUERY,
    ERR_BAD_QUERY,
    ERR_DIGEST,
    ERR_INTERNAL,
    PirServer,
    ServerNode,
    bench,
    client_retrieve,
    encode_frame,
    load_database,
    param_digest,
    read_frame,
    run_inprocess,
    save_database,
    write_frame,
)


def _read_back(data: bytes, close_writer: bool = True):
    """read_frame on the far end of a socketpair after writing ``data``."""
    writer, reader = socket.socketpair()
    with writer, reader:
        reader.settimeout(1.0)
        writer.sendall(data)
        if close_writer:
            writer.shutdown(socket.SHUT_WR)
        return read_frame(reader)


class TestFraming:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 255), st.binary(max_size=512))
    def test_roundtrip(self, msg_type, payload):
        assert _read_back(encode_frame(msg_type, payload)) == (msg_type, payload)

    def test_bad_magic(self):
        with pytest.raises(TransportError):
            _read_back(b"XXXX" + bytes(5))

    def test_length_mismatch(self):
        frame = encode_frame(MSG_QUERY, b"abc")
        with pytest.raises(TransportError, match="^connection closed mid-frame$"):
            _read_back(frame[:-1])

    @pytest.mark.parametrize("cut", [0, 3])
    def test_close_before_or_inside_a_header(self, cut):
        # A peer that closes between frames is not said to break one.
        message = "connection closed mid-frame" if cut else "connection closed"
        with pytest.raises(TransportError, match=f"^{message}$"):
            _read_back(encode_frame(MSG_QUERY, b"abc")[:cut])

    def test_oversized_length_rejected_before_recv(self):
        # The writer stays open: a reader that trusted the header would wait
        # for the payload until the timeout instead of raising.
        header = MAGIC + bytes([MSG_QUERY]) + struct.pack("<I", MAX_FRAME_PAYLOAD + 1)
        with pytest.raises(TransportError, match="exceeds"):
            _read_back(header, close_writer=False)

    def test_header_length(self):
        assert len(encode_frame(MSG_QUERY, b"")) == FRAME_HEADER_LEN

    def test_socket_timeout_bounds_the_whole_frame(self):
        # A 40-byte frame arrives one byte per 0.1 s: every recv beats the
        # 0.3 s timeout, but the whole frame does not.
        frame = encode_frame(MSG_HELLO, bytes(31))
        writer, reader = socket.socketpair()
        stop = threading.Event()

        def trickle():
            for byte in frame:
                if stop.wait(0.1):
                    return
                try:
                    writer.sendall(bytes([byte]))
                except OSError:
                    return

        thread = threading.Thread(target=trickle, daemon=True)
        with writer, reader:
            reader.settimeout(0.3)
            thread.start()
            start = time.monotonic()
            try:
                with pytest.raises(TimeoutError):
                    read_frame(reader)
                assert time.monotonic() - start < 1.5
                assert reader.gettimeout() == 0.3
            finally:
                stop.set()
                thread.join(timeout=2)
        assert not thread.is_alive()

    def test_whole_frame_leaves_the_socket_timeout(self):
        writer, reader = socket.socketpair()
        with writer, reader:
            reader.settimeout(0.7)
            writer.sendall(encode_frame(MSG_QUERY, b"abc") * 2)
            assert read_frame(reader) == read_frame(reader) == (MSG_QUERY, b"abc")
            assert reader.gettimeout() == 0.7

    def test_first_recv_keeps_the_socket_timeout(self):
        # The socket's own timeout already ends at the frame's deadline, so
        # a frame that one recv reads whole sets no timeout at all.
        class Counting:
            def __init__(self, sock):
                self.sock, self.settimeouts = sock, 0

            def __getattr__(self, attr):
                return getattr(self.sock, attr)

            def settimeout(self, value):
                self.settimeouts += 1
                self.sock.settimeout(value)

        writer, reader = socket.socketpair()
        with writer, reader:
            reader.settimeout(0.7)
            counting = Counting(reader)
            writer.sendall(encode_frame(MSG_QUERY, b""))
            assert read_frame(counting) == (MSG_QUERY, b"")
            assert counting.settimeouts == 0
            writer.sendall(encode_frame(MSG_QUERY, b"abc"))
            assert read_frame(counting) == (MSG_QUERY, b"abc")
            assert counting.settimeouts == 2  # the payload's recv, then back
            assert reader.gettimeout() == 0.7


class TestInProcess:
    def test_round_trip_and_sizes(self):
        scheme = build_cgks(8)
        x = (1, 0, 1, 1, 0, 0, 1, 0)
        cost = comm_cost(scheme)
        for i in range(8):
            bit, transcript = run_inprocess(scheme, x, i, seed=i)
            assert bit == x[i]
            assert transcript.payload_bytes == cost.payload_bytes
            assert transcript.framing_bytes == 0

    def test_index_that_is_not_an_int_is_a_param_error(self):
        # Unchecked, it ends in a bare TypeError at x[i].
        scheme = build_lagrange(8, 1, 3, 5)
        with pytest.raises(ParamError, match="index must be an int, got 1.0"):
            run_inprocess(scheme, (0, 1) * 4, 1.0, 1)

    def test_prepares_once_per_retrieval(self):
        # The k servers answer from one prepared database, and the timed
        # server side leaves the preparation out.
        scheme = build_cgks(64)
        calls = []

        def counting_prepare(x):
            calls.append(len(x))
            return scheme.prepare(x)

        counted = dataclasses.replace(scheme, prepare=counting_prepare)
        x = tuple(j % 3 % 2 for j in range(64))
        assert run_inprocess(counted, x, 5, seed=1)[0] == x[5]
        assert calls == [64]

    @pytest.mark.parametrize("scheme", desk_schemes(), ids=lambda s: s.name)
    def test_prepared_database_gives_the_same_round_trip(self, scheme):
        def sizes(transcript):
            return transcript.payload_bytes, [
                (e.server, e.query_payload_bytes, e.answer_payload_bytes)
                for e in transcript.entries
            ]

        rng = random.Random(11)
        x = tuple(rng.randrange(2) for _ in range(scheme.n))
        db = prepare(scheme, x)
        for i in range(scheme.n):
            bit, from_bits = run_inprocess(scheme, x, i, seed=i)
            same, from_db = run_inprocess(scheme, db, i, seed=i, check=False)
            assert same == bit
            assert sizes(from_db) == sizes(from_bits)
        # check reads x[i], which a Prepared does not offer.
        with pytest.raises(ParamError, match="check reads x"):
            run_inprocess(scheme, db, 0, seed=0)

    def test_sizes_database_independent(self):
        scheme = build_cgks(8)
        _, t0 = run_inprocess(scheme, (0,) * 8, 0, seed=1, check=False)
        _, t1 = run_inprocess(scheme, (1,) * 8, 0, seed=1, check=False)
        assert t0.payload_bytes == t1.payload_bytes

    def test_permuted_answers_detected(self):
        scheme = build_lagrange(3, 1, 3, 5)
        x = (1, 0, 1)
        outcomes = {"ok": 0, "wrong": 0, "inconsistent": 0}
        for ell in scheme.enumerate_randomness():
            queries = scheme.row(0, ell)
            answers = [answer(scheme, x, q) for q in queries]
            swapped = [answers[1], answers[0], answers[2]]
            from pirlab.engine import Aux

            try:
                got = reconstruct(scheme, Aux(0, ell), swapped)
            except InconsistentAnswer:
                outcomes["inconsistent"] += 1
                continue
            outcomes["ok" if got == x[0] else "wrong"] += 1
        # A swap must be visible on a majority of rows; it can only be
        # silent when the two answers happen to coincide.
        assert outcomes["wrong"] + outcomes["inconsistent"] > outcomes["ok"]


class TestNode:
    def test_node_never_sees_index(self):
        node = ServerNode(server_id=1, scheme=toy_instance(), database=(1, 0))
        assert not hasattr(node, "i") and not hasattr(node, "aux")

    def test_node_validates(self):
        with pytest.raises(ParamError):
            ServerNode(server_id=3, scheme=toy_instance(), database=(1, 0))
        with pytest.raises(ParamError):
            ServerNode(server_id=1, scheme=toy_instance(), database=(1, 0, 1))

    @pytest.mark.parametrize("server_id", ["1", 1.0, True])
    def test_rejects_a_server_id_that_is_not_an_int(self, server_id):
        # "1" used to end in a bare TypeError, and 1.0 or True built a node.
        with pytest.raises(ParamError, match=re.escape(
            f"server id must be an int in [1, 2], got {server_id!r}"
        )):
            ServerNode(server_id, build_cgks(8), (0,) * 8)

    @pytest.mark.parametrize("entry", [0, 1, False, True])
    def test_accepts_bit_entries(self, entry):
        ServerNode(server_id=1, scheme=toy_instance(), database=(entry, 1))

    def test_answers_from_its_prepared_database_through_sim_answer(
        self, monkeypatch
    ):
        # Benchmarks time a server's answer by wrapping the name sim.answer.
        scheme = build_cgks(64)
        x = tuple(j % 3 % 2 for j in range(64))
        node = ServerNode(server_id=1, scheme=scheme, database=x)
        seen = []

        def recording_answer(scheme, db, q):
            seen.append(db)
            return answer(scheme, db, q)

        monkeypatch.setattr(sim, "answer", recording_answer)
        queries, _ = query_gen(scheme, 5, seed=3)
        payload = scheme.level_codec.encode(queries[0])
        expected = scheme.encode_answer(answer(scheme, x, queries[0]))
        assert node.answer_payload(payload) == expected
        assert seen == [node.prepared]
        assert isinstance(node.prepared, Prepared)

    @pytest.mark.parametrize("entry", [2, -1, 0.5, 1.0, None, "1"])
    def test_rejects_non_bit_entries(self, entry):
        for database in ((entry, 1), (0, entry)):
            with pytest.raises(ParamError, match="must be bits"):
                ServerNode(server_id=1, scheme=toy_instance(), database=database)


# A client and a server agree only when they compute the same digest, so a
# builder change that moves one breaks every deployment built before it.  The
# second pin covers the queries: a refactor of ``row`` must keep every row.
# The third covers the answers on the wire, the bytes of ``encode_answer``.
# raghavendra and yekhanin at p = 31 pin F_(2^5), the first binary field
# whose modulus the search picks rather than a constant.  The curve schemes at
# t = 2 pin the randomness F_p^(2h) and the two-column R of their rows.
# lagrange is pinned in both shapes: the default columns and, through the
# least h with C(h, d) >= n, the one column of an explicit h.
PINNED_DIGESTS = [
    ("toy", {}, "fa0a9550fc7004d0", "254ee99461dbd7fe", "a0454a24dd4bc418"),
    ("cgks", {"n": 8}, "4b5adb15b95ebaec", "68c35e479db6389f",
     "f5340b544a6e34a2"),
    ("lagrange", {"n": 3, "t": 1, "k": 3, "p": 5},
     "192ac9c5a312bc28", "18f097a65fc0a7b5", "80134d07df2e0126"),
    ("hermite", {"n": 4, "t": 1, "k": 2, "p": 7},
     "d6bfb7e83a9b68e7", "81c7917457b2cece", "988ea33f145096fa"),
    ("yekhanin", {}, "80725ddb2f6ad7f1", "c1ec7b370a1c2ef2",
     "64d45c3d2d6bcf52"),
    ("raghavendra", {}, "7432876131a598fa", "c1ec7b370a1c2ef2",
     "affb16b74ececf9b"),
    ("efremenko", {"m": 6, "p": 7}, "50f98001b0a4025e", "3167994aba5da272",
     "8b9ebe223ef10610"),
    ("dvir-gopi", {"m": 6}, "f51a787961735340", "5f30874068016659",
     "e05605ba0090ab41"),
    ("gks", {"m": 2, "p": 3}, "0ca7c7f01b7adf1d", "f4c69829a0fdf3b2",
     "cb3603ec9b0b5178"),
    ("broken-demo", {}, "7ea0de08b19c09dc", "4fa32532433a4df2",
     "a0454a24dd4bc418"),
    ("cgks", {"n": 8192}, "022292099ba7685b", "379de9369d4dfa19",
     "83a33a11441ba15e"),
    ("lagrange", {"n": 65536, "t": 1, "k": 3, "p": 13},
     "e5debb05c69bf97c", "ebb8cda67dac6fcf", "41a0656016bff3b9"),
    ("lagrange", {"n": 65536, "t": 1, "k": 3, "p": 13, "h": 363},
     "accb5306a569fa7a", "6049be563cf464d6", "2c6c34be10b0296c"),
    ("cgks", {"n": 64}, "f38c65e3c9d1b9d2", "d4dd3682abf3cebf",
     "b61f3e9c9e94d266"),
    ("hermite", {"n": 64, "t": 1, "k": 2, "p": 5},
     "4885f61018fed862", "2b2058b7f6582577", "eef002cddb1fcae4"),
    ("dvir-gopi", {"m": 6, "n": 3}, "f51a787961735340", "5f30874068016659",
     "e05605ba0090ab41"),
    ("gks", {"m": 2, "p": 3, "n": 3}, "0ca7c7f01b7adf1d", "f4c69829a0fdf3b2",
     "cb3603ec9b0b5178"),
    ("raghavendra", {"p": 31}, "9088d5db7e21c4f2", "b92ae49dc4597a8d",
     "3ad4bb4acff3eede"),
    ("yekhanin", {"p": 31}, "7715e50481dd343c", "b92ae49dc4597a8d",
     "81cb25eb30092ad4"),
    ("lagrange", {"n": 20, "t": 2, "k": 5, "p": 7},
     "ee8fb06dc657afdd", "39daf2fe23fdf6ed", "e473229507265808"),
    ("lagrange", {"n": 20, "t": 2, "k": 5, "p": 7, "h": 7},
     "20abae67cac1b957", "918f41a7411a05eb", "9ed4497702d1b260"),
    ("hermite", {"n": 10, "t": 2, "k": 4, "p": 11},
     "4d3b44e28c4f031c", "08a9f2007a8e3580", "12f7fd78fbd286a3"),
]


# The ids name the protocol and its config, never the digest, so that moving
# a pin keeps the test's name.
_pinned = pytest.mark.parametrize(
    "name,config,param_pin,row_pin,answer_pin",
    PINNED_DIGESTS,
    ids=[
        "-".join([name, *(f"{key}{value}" for key, value in config.items())])
        for name, config, *_ in PINNED_DIGESTS
    ],
)


@_pinned
def test_param_digest_pinned(name, config, param_pin, row_pin, answer_pin):
    assert param_digest(build_named(name, config)) == param_pin


@_pinned
def test_param_digest_without_builtin_sha256(
    monkeypatch, name, config, param_pin, row_pin, answer_pin
):
    # A Python build without CPython's own SHA-256 modules digests through
    # hashlib, to the same value.
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    imported = []
    real_import = __import__

    def recording_import(module, *args, **kwargs):
        imported.append(module)
        return real_import(module, *args, **kwargs)

    monkeypatch.setattr("builtins.__import__", recording_import)
    assert param_digest(build_named(name, config)) == param_pin
    assert "hashlib" in imported


@_pinned
def test_rows_pinned(name, config, param_pin, row_pin, answer_pin):
    # row(i, ell) for a few i at ranks spread over the whole randomness space.
    scheme = build_named(name, config)
    size = scheme.num_rows
    rows = hashlib.sha256()
    for rank in sorted({size * s // 7 for s in range(7)} | {size - 1}):
        ell = scheme.randomness.unrank(rank)
        for i in sorted({0, scheme.n // 2, scheme.n - 1}):
            rows.update(repr(scheme.row(i, ell)).encode())
    assert rows.hexdigest()[:16] == row_pin


@_pinned
def test_answers_pinned(name, config, param_pin, row_pin, answer_pin):
    # The encoded answers to the queries of two seeded retrievals, on one
    # seeded database.
    scheme = build_named(name, config)
    rng = random.Random(2024)
    x = tuple(rng.randrange(2) for _ in range(scheme.n))
    answers = hashlib.sha256()
    for i, seed in ((0, 1), (scheme.n - 1, 2)):
        queries, _ = query_gen(scheme, i, seed=seed)
        for q in queries:
            answers.update(scheme.encode_answer(answer(scheme, x, q)))
    assert answers.hexdigest()[:16] == answer_pin


def assert_no_connection(listeners):
    for listener in listeners:
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):
            listener.accept()


@pytest.fixture()
def cgks_servers():
    scheme = build_cgks(8)
    x = (1, 0, 1, 1, 0, 0, 1, 0)
    servers = [
        PirServer(ServerNode(server_id=j + 1, scheme=scheme, database=x)).start()
        for j in range(scheme.k)
    ]
    yield scheme, x, servers
    for s in servers:
        s.stop()


class TestTcp:
    def test_retrieval_and_payload_parity(self, cgks_servers):
        scheme, x, servers = cgks_servers
        endpoints = [s.endpoint for s in servers]
        for i in (0, 3, 7):
            bit, transcript = client_retrieve(endpoints, scheme, i, seed=i)
            assert bit == x[i]
            _, local = run_inprocess(scheme, x, i, seed=i)
            assert transcript.payload_bytes == local.payload_bytes
            assert transcript.framing_bytes > 0

    def test_framing_bytes_count_the_handshake(self, cgks_servers):
        scheme, _, servers = cgks_servers
        _, transcript = client_retrieve([s.endpoint for s in servers], scheme, 0, seed=0)
        # Per server: HELLO (16-hex digest), CONFIG ("cgks " + digest), and
        # the headers of QUERY and ANSWER.
        assert transcript.framing_bytes == 2 * ((9 + 16) + (9 + 21) + 9 + 9) == 146

    def test_hello_config_exchange(self, cgks_servers):
        scheme, _, servers = cgks_servers
        host, port = servers[0].endpoint
        with socket.create_connection((host, port), timeout=2) as sock:
            write_frame(sock, MSG_HELLO, param_digest(scheme).encode())
            msg_type, payload = read_frame(sock)
        assert msg_type == MSG_CONFIG
        name, digest = payload.decode().split()
        assert name == scheme.name
        assert digest == param_digest(scheme)

    def test_empty_hello_gets_digest_error(self, cgks_servers):
        scheme, _, servers = cgks_servers
        host, port = servers[0].endpoint
        with socket.create_connection((host, port), timeout=2) as sock:
            write_frame(sock, MSG_HELLO, b"")
            msg_type, payload = read_frame(sock)
        assert msg_type == MSG_ERROR
        assert payload == bytes([ERR_DIGEST]) + param_digest(scheme).encode()

    def test_query_before_hello_gets_digest_error(self, cgks_servers):
        scheme, _, servers = cgks_servers
        host, port = servers[0].endpoint
        queries, _ = query_gen(scheme, 0, seed=0)
        with socket.create_connection((host, port), timeout=2) as sock:
            write_frame(sock, MSG_QUERY, scheme.level_codec.encode(queries[0]))
            msg_type, payload = read_frame(sock)
            assert msg_type == MSG_ERROR
            assert payload == bytes([ERR_DIGEST]) + param_digest(scheme).encode()
            # The connection stays open: a matching HELLO then unlocks QUERY.
            write_frame(sock, MSG_HELLO, param_digest(scheme).encode())
            assert read_frame(sock)[0] == MSG_CONFIG
            write_frame(sock, MSG_QUERY, scheme.level_codec.encode(queries[0]))
            assert read_frame(sock)[0] == MSG_ANSWER

    def test_truncated_query_gets_error_2(self, cgks_servers):
        scheme, _, servers = cgks_servers
        host, port = servers[0].endpoint
        with socket.create_connection((host, port), timeout=2) as sock:
            write_frame(sock, MSG_HELLO, param_digest(scheme).encode())
            assert read_frame(sock)[0] == MSG_CONFIG
            write_frame(sock, MSG_QUERY, b"")  # codec expects 1 byte
            msg_type, payload = read_frame(sock)
        assert msg_type == MSG_ERROR
        assert payload[0] == ERR_BAD_QUERY == 2

    def test_trickling_client_is_closed_at_the_frame_deadline(
        self, cgks_servers, monkeypatch
    ):
        # One header byte every 0.2 s: each recv would beat a per-recv
        # timeout of 0.5 s forever, but the whole frame misses its deadline.
        monkeypatch.setattr(sim, "DEFAULT_TIMEOUT", 0.5)
        scheme, x, servers = cgks_servers
        frame = encode_frame(MSG_HELLO, param_digest(scheme).encode())
        with socket.create_connection(servers[0].endpoint, timeout=2) as sock:
            sock.settimeout(0.2)
            start = time.monotonic()
            closed = False
            for byte in frame:
                try:
                    sock.sendall(bytes([byte]))
                    closed = sock.recv(1) == b""
                except TimeoutError:
                    continue
                except OSError:  # reset or broken pipe: closed as well
                    closed = True
                if closed:
                    break
            elapsed = time.monotonic() - start
        assert closed and elapsed < 1.5
        # Clients that send whole frames are served as before.
        bit, _ = client_retrieve([s.endpoint for s in servers], scheme, 3, seed=3)
        assert bit == x[3]

    def test_connections_past_the_cap_are_closed_at_accept(self, monkeypatch):
        monkeypatch.setattr(sim, "MAX_CONNECTIONS", 4)
        scheme = build_cgks(8)
        x = (1, 0, 1, 1, 0, 0, 1, 0)
        servers = [
            PirServer(ServerNode(server_id=j + 1, scheme=scheme, database=x)).start()
            for j in range(scheme.k)
        ]
        endpoint = servers[0].endpoint
        hello = param_digest(scheme).encode()
        queries, _ = query_gen(scheme, 3, seed=3)
        held = []
        try:
            for _ in range(4):
                held.append(socket.create_connection(endpoint, timeout=2))
                write_frame(held[-1], MSG_HELLO, hello)
                assert read_frame(held[-1])[0] == MSG_CONFIG
            for _ in range(2):
                with socket.create_connection(endpoint, timeout=2) as extra:
                    assert extra.recv(1) == b""
            for sock in held:
                write_frame(sock, MSG_QUERY, scheme.level_codec.encode(queries[0]))
                assert read_frame(sock)[0] == MSG_ANSWER
                sock.close()
            # Closed connections give their slots back.
            deadline = time.monotonic() + 2
            while True:
                try:
                    bit, _ = client_retrieve(
                        [s.endpoint for s in servers], scheme, 3, seed=3
                    )
                    break
                except TransportError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            assert bit == x[3]
        finally:
            for sock in held:
                sock.close()
            for s in servers:
                s.stop()

    def test_trickling_server_times_out_the_client(self, listener_pair):
        # A CONFIG sent one byte per 0.1 s: each recv beats the client's
        # 0.5 s timeout, but the whole frame does not.
        scheme = build_cgks(8)
        # The second listener takes its connection in its backlog, unread.
        listener, idle = listener_pair
        stop = threading.Event()

        def trickle():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                for byte in encode_frame(MSG_CONFIG, bytes(40)):
                    if stop.wait(0.1):
                        return
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:
                        return

        thread = threading.Thread(target=trickle, daemon=True)
        thread.start()
        try:
            host, port = endpoint = listener.getsockname()[:2]
            endpoints = [endpoint, idle.getsockname()[:2]]
            start = time.monotonic()
            with pytest.raises(Timeout, match=f"server {host}:{port} timed out"):
                client_retrieve(endpoints, scheme, 0, seed=0, timeout=0.5)
            assert time.monotonic() - start < 1.5
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_query_longer_than_codec_closes_connection(self):
        # The server's bound is max(QUERY width, digest length): this query
        # is 17 bytes wide, so the bound is its own width.  One column of
        # n = 600 needs h = 36 (C(36, 2) = 630).
        scheme = build_lagrange(600, 1, 3, 13, h=36)
        assert scheme.level_codec.nbytes > len(param_digest(scheme))
        server = PirServer(ServerNode(1, scheme, (0,) * 600)).start()
        try:
            with socket.create_connection(server.endpoint, timeout=2) as sock:
                write_frame(sock, MSG_HELLO, server.digest.encode())
                assert read_frame(sock)[0] == MSG_CONFIG
                # No payload follows: a server that trusted the header would
                # wait for it until its own 5 s timeout.
                length = scheme.level_codec.nbytes + 1
                sock.sendall(MAGIC + bytes([MSG_QUERY]) + struct.pack("<I", length))
                sock.settimeout(1.0)
                assert sock.recv(1) == b""
        finally:
            server.stop()

    def test_answer_failure_gets_internal_error_and_close(self):
        scheme = build_cgks(8)

        def failing_kernel(db, q):
            raise RuntimeError(f"failed on query {q}")

        # cgks answers through its kernel, not through alpha.
        broken = dataclasses.replace(scheme, answer_kernel=failing_kernel)
        node = ServerNode(server_id=1, scheme=broken, database=(1,) * 8)
        server = PirServer(node).start()
        try:
            queries, _ = query_gen(scheme, 0, seed=0)
            with socket.create_connection(server.endpoint, timeout=2) as sock:
                write_frame(sock, MSG_HELLO, server.digest.encode())
                assert read_frame(sock)[0] == MSG_CONFIG
                write_frame(sock, MSG_QUERY, scheme.level_codec.encode(queries[0]))
                msg_type, payload = read_frame(sock)
                assert msg_type == MSG_ERROR
                # The type name only: nothing of the query comes back.
                assert payload == bytes([ERR_INTERNAL]) + b"RuntimeError"
                with pytest.raises(TransportError):
                    read_frame(sock)
        finally:
            server.stop()

    def test_unknown_type_gets_error(self, cgks_servers):
        _, _, servers = cgks_servers
        host, port = servers[0].endpoint
        with socket.create_connection((host, port), timeout=2) as sock:
            write_frame(sock, 0x7F, b"")
            msg_type, _ = read_frame(sock)
        assert msg_type == MSG_ERROR

    def test_digest_mismatch(self, cgks_servers):
        _, _, servers = cgks_servers
        other = build_cgks(27)  # same protocol, different parameters
        endpoints = [s.endpoint for s in servers]
        with pytest.raises(ParamDigestMismatch):
            client_retrieve(endpoints, other, 0, seed=0)

    def test_undecodable_digest_reply_is_a_digest_mismatch(self, listener_pair):
        scheme = build_cgks(8)
        listeners = listener_pair

        def hostile():
            # Answer each HELLO with a digest error whose digest is not UTF-8.
            for listener in listeners:
                try:
                    conn, _ = listener.accept()
                    with conn:
                        read_frame(conn)
                        write_frame(conn, MSG_ERROR, bytes([ERR_DIGEST]) + b"\xff\xfe")
                except OSError:
                    return

        thread = threading.Thread(target=hostile, daemon=True)
        thread.start()
        try:
            endpoints = [listener.getsockname()[:2] for listener in listeners]
            with pytest.raises(ParamDigestMismatch):
                client_retrieve(endpoints, scheme, 0, seed=0, timeout=2.0)
        finally:
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_config_for_another_deployment_is_a_digest_mismatch(
        self, malformed_answer_listeners
    ):
        # The stub's CONFIG names cgks n=8: the same protocol under another
        # digest, so no QUERY may follow it.
        scheme = build_cgks(27)
        host, port = malformed_answer_listeners[0]
        with pytest.raises(ParamDigestMismatch, match=f"server {host}:{port} sent CONFIG"):
            client_retrieve(
                malformed_answer_listeners, scheme, 0, seed=0, timeout=2.0
            )

    def test_server_reset_is_a_transport_error_naming_it(self, resetting_listeners):
        scheme = build_cgks(8)
        port = resetting_listeners[0][1]
        with pytest.raises(TransportError, match=f"server 127.0.0.1:{port}") as info:
            client_retrieve(resetting_listeners, scheme, 0, seed=0, timeout=2.0)
        assert not isinstance(info.value, Timeout)

    @pytest.mark.parametrize("stub, message", [
        ("closing_listeners", "connection closed"),
        ("bad_magic_listeners", "bad magic b'XXXX'"),
        ("over_cap_listeners", f"declared length {2**31} exceeds {MAX_FRAME_PAYLOAD}"),
    ], ids=["fin-after-hello", "bad-magic", "over-cap"])
    def test_frame_error_is_a_transport_error_naming_it(self, request, stub, message):
        # read_frame's own errors, not only socket errors, name the server.
        endpoints = request.getfixturevalue(stub)
        port = endpoints[0][1]
        with pytest.raises(TransportError) as info:
            client_retrieve(endpoints, build_cgks(8), 0, seed=0, timeout=2.0)
        assert str(info.value) == f"server 127.0.0.1:{port}: {message}"
        assert not isinstance(info.value, Timeout)

    def test_malformed_answer_is_a_transport_error_naming_it(
        self, malformed_answer_listeners
    ):
        scheme = build_cgks(8)
        host, port = malformed_answer_listeners[0]
        with pytest.raises(TransportError, match=f"server {host}:{port}") as info:
            client_retrieve(
                malformed_answer_listeners, scheme, 0, seed=0, timeout=2.0
            )
        assert "expected 1 bytes, got 5" in str(info.value)
        assert not isinstance(info.value, Timeout)

    def test_servers_answer_at_the_same_time(self):
        scheme = build_cgks(8)

        def slow_alpha(tau, q):
            time.sleep(0.05)
            return scheme.alpha(tau, q)

        # All ones: each answer calls alpha 8 times, so takes at least 0.4 s.
        slow = dataclasses.replace(scheme, alpha=slow_alpha)
        servers = [
            PirServer(ServerNode(j + 1, slow, (1,) * 8)).start()
            for j in range(scheme.k)
        ]
        try:
            t0 = time.perf_counter()
            bit, _ = client_retrieve([s.endpoint for s in servers], scheme, 3, seed=0)
            elapsed = time.perf_counter() - t0
        finally:
            for s in servers:
                s.stop()
        assert bit == 1
        # One server after the other would take at least 0.8 s.
        assert elapsed < 0.7

    def test_server_down_raises_timeout_naming_it(self, cgks_servers):
        scheme, _, servers = cgks_servers
        # Claim a port and close it so nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        endpoints = [servers[0].endpoint, ("127.0.0.1", dead_port)]
        with pytest.raises(Timeout, match=str(dead_port)):
            client_retrieve(endpoints, scheme, 0, seed=0, timeout=1.0)

    def test_wrong_endpoint_count(self, cgks_servers):
        scheme, _, servers = cgks_servers
        with pytest.raises(ParamError):
            client_retrieve([servers[0].endpoint], scheme, 0, seed=0)

    def test_endpoint_named_twice_connects_to_nothing(self, listener_pair, monkeypatch):
        # One server sent both cgks queries reads i off their XOR.
        scheme = build_cgks(8)
        endpoint = listener_pair[0].getsockname()[:2]
        monkeypatch.setattr(sim, "query_gen", None)  # no query is drawn
        with pytest.raises(ParamError, match="named twice"):
            client_retrieve([endpoint, endpoint], scheme, 0, seed=0, timeout=1.0)
        assert_no_connection(listener_pair)

    @pytest.mark.parametrize("wrapped", [True, False], ids=["port+65536", "0"])
    def test_port_out_of_range_connects_to_nothing(self, listener_pair, wrapped):
        # Port p + 65536 would otherwise reach the listener at port p.
        scheme = build_cgks(8)
        (host, port), other = (l.getsockname()[:2] for l in listener_pair)
        endpoints = [other, (host, port + 65536 if wrapped else 0)]
        with pytest.raises(ParamError, match=r"\[1, 65535\]"):
            client_retrieve(endpoints, scheme, 0, seed=0, timeout=1.0)
        assert_no_connection(listener_pair)

    def test_index_that_is_not_an_int_connects_to_nothing(self, listener_pair):
        scheme = build_cgks(8)
        endpoints = [l.getsockname()[:2] for l in listener_pair]
        with pytest.raises(ParamError, match="index must be an int, got 2.5"):
            client_retrieve(endpoints, scheme, 2.5, seed=0, timeout=1.0)
        assert_no_connection(listener_pair)

    @pytest.mark.parametrize("kind", [str, float, bool])
    def test_port_that_is_not_an_int_connects_to_nothing(self, listener_pair, kind):
        # "7001" used to end in a bare TypeError, and 7001.0 or True in a
        # Timeout that reported a down server instead of a bad argument.
        scheme = build_cgks(8)
        (host, port), other = (l.getsockname()[:2] for l in listener_pair)
        bad = kind(port)
        with pytest.raises(ParamError, match=re.escape(
            f"endpoint {host}:{bad!r}: port must be an int in [1, 65535]"
        )):
            client_retrieve([other, (host, bad)], scheme, 0, seed=0, timeout=1.0)
        assert_no_connection(listener_pair)

    # 10**400 and 1e300 are finite but over threading.TIMEOUT_MAX: they used
    # to end in a bare OverflowError, in math.isfinite and in the connect.
    @pytest.mark.parametrize(
        "timeout",
        ["5", True, 0, float("inf"), pytest.param(10**400, id="10**400"), 1e300],
    )
    def test_timeout_that_is_not_a_positive_number_connects_to_nothing(
        self, listener_pair, timeout
    ):
        scheme = build_cgks(8)
        endpoints = [l.getsockname()[:2] for l in listener_pair]
        if timeout in (10**400, 1e300):
            message = ("timeout must be at most threading.TIMEOUT_MAX = "
                       f"{threading.TIMEOUT_MAX:g} s, got {timeout!r}")
        else:
            message = f"timeout must be a finite number > 0, got {timeout!r}"
        with pytest.raises(ParamError, match=re.escape(message)):
            client_retrieve(endpoints, scheme, 0, seed=0, timeout=timeout)
        assert_no_connection(listener_pair)

    # "0" used to end in a bare TypeError and False to bind a free port.
    @pytest.mark.parametrize("port", [70000, -1, "0", 0.0, False])
    def test_server_port_out_of_range_is_a_param_error(self, port):
        node = ServerNode(1, build_cgks(8), (0,) * 8)
        with pytest.raises(ParamError, match=r"\[0, 65535\]"):
            PirServer(node, port=port)

    def test_stop_without_start_returns_and_frees_the_port(self):
        server = PirServer(ServerNode(1, build_cgks(8), (0,) * 8))
        port = server.endpoint[1]
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=2)
        assert not stopper.is_alive()
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))

    def test_concurrent_clients_identical_answers(self, cgks_servers):
        scheme, x, servers = cgks_servers
        endpoints = [s.endpoint for s in servers]
        import concurrent.futures

        def fetch(_):
            return client_retrieve(endpoints, scheme, 5, seed=123)[0]

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(fetch, range(4)))
        assert results == [x[5]] * 4


class TestDatabaseFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "db.bin"
        x = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1)
        save_database(path, x)
        assert load_database(path) == bytes(x)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9])
    def test_roundtrip_at_byte_edges(self, tmp_path, n):
        path = tmp_path / "db.bin"
        rng = random.Random(n)
        for x in ((0,) * n, (1,) * n, tuple(rng.randrange(2) for _ in range(n))):
            save_database(path, x)
            value = sum(bit << j for j, bit in enumerate(x))
            body = value.to_bytes((n + 7) // 8, "little")
            assert path.read_bytes() == struct.pack("<Q", n) + body
            assert load_database(path) == bytes(x)

    def test_header_is_8_byte_length(self, tmp_path):
        path = tmp_path / "db.bin"
        save_database(path, (1, 0, 1))
        raw = path.read_bytes()
        assert struct.unpack("<Q", raw[:8])[0] == 3
        assert len(raw) == 9

    def test_packs_bit_j_into_byte_j_over_8(self, tmp_path):
        path = tmp_path / "db.bin"
        save_database(path, (1, 0, 1, 1, 0, 0, 1, 0, 1))
        assert path.read_bytes()[8:] == bytes([0b01001101, 0b00000001])
        save_database(path, ())
        assert path.read_bytes() == struct.pack("<Q", 0)
        assert load_database(path) == bytes(())

    @pytest.mark.parametrize(
        "name,config",
        [
            ("cgks", {"n": 1 << 20}),
            ("lagrange", {"n": 1 << 20, "t": 1, "k": 3, "p": 13}),
        ],
    )
    def test_server_from_file_holds_one_byte_per_bit(self, tmp_path, name, config):
        # A server holds its n bits as n bytes, never as an n-entry tuple
        # (8 bytes per bit), and reaches no more than a few n-byte copies
        # on the way from the file.
        scheme = build_named(name, config)
        n = scheme.n
        path = tmp_path / "db.bin"
        path.write_bytes(struct.pack("<Q", n) + random.Random(5).randbytes(n // 8))
        tracemalloc.start()
        try:
            node = ServerNode(1, scheme, load_database(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert node.prepared.n == n
        assert peak <= 4 << 20 and held <= 2 << 20

    @pytest.mark.parametrize("x", [(0, 2), (1, -1), (0, 256), (1, 0.5)])
    def test_save_rejects_non_bit_entries(self, tmp_path, x):
        with pytest.raises(ParamError, match="bits"):
            save_database(tmp_path / "db.bin", x)

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<Q", 100) + b"\x00")
        with pytest.raises(ParamError):
            load_database(path)

    def test_rejects_nonzero_padding_bits(self, tmp_path):
        path = tmp_path / "padded.bin"
        path.write_bytes(struct.pack("<Q", 3) + bytes([0b10000101]))
        with pytest.raises(ParamError, match="padding"):
            load_database(path)

    @settings(max_examples=200, deadline=None)
    @given(
        st.binary(max_size=24)
        | st.integers(0, 64).flatmap(
            lambda n: st.binary(min_size=(n + 7) // 8, max_size=(n + 7) // 8).map(
                lambda body: struct.pack("<Q", n) + body
            )
        )
    )
    def test_load_fuzz_returns_bits_or_param_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "db.bin"
        path.write_bytes(data)
        try:
            x = load_database(path)
        except ParamError:
            return
        assert isinstance(x, bytes)
        assert all(bit in (0, 1) for bit in x)


class TestBench:
    def test_cube_grid_matches_prediction(self):
        rows = bench(build_cgks, [8, 64, 512], trials=1)
        for row, h in zip(rows, (2, 4, 8)):
            assert row["raw_bits"] == 12 * h + 2
            assert row["predicted_bits"] == row["raw_bits"]
            assert row["lower_bound_bits"] > 0

    @pytest.mark.parametrize(
        "scheme", [*desk_schemes(), build_named("broken-demo")], ids=lambda s: s.name
    )
    def test_desk_codecs_match_closed_form(self, scheme):
        # predicted_bits comes from the paper's formula over the report, so
        # this checks the codec widths, not a copy of them.
        (row,) = bench(lambda n: scheme, [scheme.n], trials=1)
        assert math.isclose(row["predicted_bits"], row["raw_bits"], abs_tol=1e-3)

    @pytest.mark.parametrize("name", ["lagrange", "hermite"])
    @pytest.mark.parametrize("t,k", [(1, 2), (1, 3), (2, 3), (2, 5)])
    def test_curve_codecs_match_closed_form(self, name, t, k):
        def build(n):
            return build_named(name, {"n": n, "t": t, "k": k, "p": 11})

        for row in bench(build, [1, 7, 100, 1000], trials=1):
            assert math.isclose(row["predicted_bits"], row["raw_bits"], abs_tol=1e-3)

    def test_timing_columns_optional(self):
        rows = bench(build_cgks, [8], trials=1)
        assert "server_time_s" not in rows[0]
        rows = bench(build_cgks, [8], trials=1, timing=True)
        assert "server_time_s" in rows[0] and "client_time_s" in rows[0]

    def test_lagrange_formula(self):
        rows = bench(lambda n: build_lagrange(n, 1, 3, 5), [3], trials=1)
        h = 3
        assert rows[0]["raw_bits"] == pytest.approx(
            round(3 * (h + 1) * math.log2(5), 3)
        )

    def test_database_is_one_byte_per_bit(self):
        # The bench's own database is n bytes, not an n-entry tuple
        # (8 bytes per bit), so it stays small beside what it measures.
        tracemalloc.start()
        try:
            (row,) = bench(build_cgks, [2**20], trials=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row["n"] == 2**20
        assert peak <= 4 << 20
