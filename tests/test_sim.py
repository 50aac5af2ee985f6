"""Transports: framing, in-process byte accounting, the TCP server/client
pair, database files, and the bench table."""

import dataclasses
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from pirlab.engine import answer, comm_cost, query_gen, reconstruct
from pirlab.errors import (
    InconsistentAnswer,
    ParamDigestMismatch,
    ParamError,
    Timeout,
    TransportError,
)
from pirlab.protocols.cube import build_cgks
from pirlab.protocols.curve import build_lagrange
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
    serve,
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
        with pytest.raises(TransportError):
            _read_back(frame[:-1])

    def test_oversized_length_rejected_before_recv(self):
        # The writer stays open: a reader that trusted the header would wait
        # for the payload until the timeout instead of raising.
        header = MAGIC + bytes([MSG_QUERY]) + struct.pack("<I", MAX_FRAME_PAYLOAD + 1)
        with pytest.raises(TransportError, match="exceeds"):
            _read_back(header, close_writer=False)

    def test_header_length(self):
        assert len(encode_frame(MSG_QUERY, b"")) == FRAME_HEADER_LEN


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


@pytest.fixture()
def cgks_servers():
    scheme = build_cgks(8)
    x = (1, 0, 1, 1, 0, 0, 1, 0)
    servers = [
        serve(ServerNode(server_id=j + 1, scheme=scheme, database=x))
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

    def test_query_longer_than_codec_closes_connection(self):
        # The server's bound is max(QUERY width, digest length): this query
        # is 17 bytes wide, so the bound is its own width.
        scheme = build_lagrange(600, 1, 3, 13)
        assert scheme.level_codec.nbytes > len(param_digest(scheme))
        server = serve(ServerNode(server_id=1, scheme=scheme, database=(0,) * 600))
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

        def failing_alpha(tau, q):
            raise RuntimeError(f"failed on query {q}")

        broken = dataclasses.replace(scheme, alpha=failing_alpha)
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

    def test_undecodable_digest_reply_is_a_digest_mismatch(self):
        scheme = build_cgks(8)
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(2.0)

        def hostile():
            # Answer each HELLO with a digest error whose digest is not UTF-8.
            for _ in range(scheme.k):
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
            endpoint = listener.getsockname()[:2]
            with pytest.raises(ParamDigestMismatch):
                client_retrieve([endpoint] * scheme.k, scheme, 0, seed=0, timeout=2.0)
        finally:
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()

    def test_servers_answer_at_the_same_time(self):
        scheme = build_cgks(8)

        def slow_alpha(tau, q):
            time.sleep(0.05)
            return scheme.alpha(tau, q)

        # All ones: each answer calls alpha 8 times, so takes at least 0.4 s.
        slow = dataclasses.replace(scheme, alpha=slow_alpha)
        servers = [
            serve(ServerNode(server_id=j + 1, scheme=slow, database=(1,) * 8))
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
        assert load_database(path) == x

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
        assert load_database(path) == ()

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
        assert isinstance(x, tuple)
        assert all(bit in (0, 1) for bit in x)


class TestBench:
    def test_cube_grid_matches_prediction(self):
        rows = bench(build_cgks, [8, 64, 512], trials=1)
        for row, h in zip(rows, (2, 4, 8)):
            assert row["raw_bits"] == 12 * h + 2
            assert row["predicted_bits"] == row["raw_bits"]
            assert row["lower_bound_bits"] > 0

    def test_timing_columns_optional(self):
        rows = bench(build_cgks, [8], trials=1)
        assert "server_time_s" not in rows[0]
        rows = bench(build_cgks, [8], trials=1, timing=True)
        assert "server_time_s" in rows[0] and "client_time_s" in rows[0]

    def test_lagrange_formula(self):
        import math

        rows = bench(lambda n: build_lagrange(n, 1, 3, 5), [3], trials=1)
        h = 3
        assert rows[0]["raw_bits"] == pytest.approx(
            round(3 * (h + 1) * math.log2(5), 3)
        )
