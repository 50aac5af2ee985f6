import socket
import struct
import threading

import pytest

from pirlab.mv import (
    canonical_set,
    search_matching_family,
    trivial_decoding_poly,
    two_subgroup,
    yekhanin_nice_sets,
)
from pirlab.errors import TransportError
from pirlab.protocols.cube import build_cgks
from pirlab.sim import MSG_ANSWER, MSG_CONFIG, param_digest, read_frame, write_frame


@pytest.fixture(scope="session")
def mersenne_family():
    return search_matching_family(7, 3, two_subgroup(7), 3, side_constraint=True)


@pytest.fixture(scope="session")
def canonical_family_6():
    return search_matching_family(6, 3, canonical_set(6), 3)


@pytest.fixture(scope="session")
def nice_sets_7():
    return yekhanin_nice_sets(7)


@pytest.fixture(scope="session")
def poly_6_7():
    return trivial_decoding_poly(6, 7)


@pytest.fixture
def resetting_listener():
    """The endpoint of a listener that reads each of two connections' HELLO
    and then resets it (SO_LINGER 0 makes close send RST, not FIN)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(2.0)

    def reset_after_hello():
        for _ in range(2):
            try:
                conn, _ = listener.accept()
                with conn:
                    read_frame(conn)
                    linger = struct.pack("ii", 1, 0)
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
            except OSError:
                return

    thread = threading.Thread(target=reset_after_hello, daemon=True)
    thread.start()
    yield listener.getsockname()[:2]
    thread.join(timeout=5)
    listener.close()
    assert not thread.is_alive()


@pytest.fixture
def malformed_answer_listener():
    """The endpoint of a listener that takes two connections, replies to
    each HELLO with the CONFIG of cgks n=8 and to each QUERY with a 5-byte
    ANSWER, four bytes wider than a cgks n=8 answer.  A client that closes
    after the CONFIG ends the stub quietly."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(2.0)
    config = f"cgks {param_digest(build_cgks(8))}".encode()

    def answer_too_wide():
        try:
            conns = [listener.accept()[0] for _ in range(2)]
        except OSError:
            return
        with conns[0], conns[1]:
            try:
                for conn in conns:
                    conn.settimeout(2.0)
                    read_frame(conn)
                    write_frame(conn, MSG_CONFIG, config)
                for conn in conns:
                    read_frame(conn)
                    write_frame(conn, MSG_ANSWER, bytes(5))
            except (OSError, TransportError):
                return

    thread = threading.Thread(target=answer_too_wide, daemon=True)
    thread.start()
    yield listener.getsockname()[:2]
    thread.join(timeout=5)
    listener.close()
    assert not thread.is_alive()
