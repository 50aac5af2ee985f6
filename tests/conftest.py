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
def listener_pair():
    """Two loopback listeners, closed after the test: a client's k = 2
    endpoints must be two distinct servers."""
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]
    for listener in listeners:
        listener.settimeout(2.0)
    yield listeners
    for listener in listeners:
        listener.close()


@pytest.fixture
def resetting_listeners(listener_pair):
    """The endpoints of two listeners that each read one connection's HELLO
    and then reset it (SO_LINGER 0 makes close send RST, not FIN)."""
    listeners = listener_pair

    def reset_after_hello():
        for listener in listeners:
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
    yield [listener.getsockname()[:2] for listener in listeners]
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def malformed_answer_listeners(listener_pair):
    """The endpoints of two listeners that take one connection each, reply
    to each HELLO with the CONFIG of cgks n=8 and to each QUERY with a
    5-byte ANSWER, four bytes wider than a cgks n=8 answer.  A client that
    closes after the CONFIG ends the stub quietly."""
    listeners = listener_pair
    config = f"cgks {param_digest(build_cgks(8))}".encode()

    def answer_too_wide():
        try:
            conns = [listener.accept()[0] for listener in listeners]
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
    yield [listener.getsockname()[:2] for listener in listeners]
    thread.join(timeout=5)
    assert not thread.is_alive()
