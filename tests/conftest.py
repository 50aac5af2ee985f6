import contextlib
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
from pirlab.sim import (
    MAGIC,
    MSG_ANSWER,
    MSG_CONFIG,
    encode_frame,
    param_digest,
    read_frame,
    write_frame,
)


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


@contextlib.contextmanager
def _stub_servers(listeners, answer=None, reset=False):
    """The endpoints of two listeners served by a stub thread that takes one
    connection on each and reads its HELLO.  With ``answer`` None it then
    closes each connection, by RST if ``reset`` (SO_LINGER 0) and by FIN
    otherwise.  Else it replies to each HELLO with the CONFIG of cgks n=8
    and to each QUERY with the raw bytes ``answer``.  A client that closes
    early ends the stub quietly."""
    config = f"cgks {param_digest(build_cgks(8))}".encode()

    def serve():
        try:
            conns = [listener.accept()[0] for listener in listeners]
        except OSError:
            return
        with conns[0], conns[1]:
            try:
                for conn in conns:
                    conn.settimeout(2.0)
                    read_frame(conn)
                    if reset:
                        linger = struct.pack("ii", 1, 0)
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
                    elif answer is not None:
                        write_frame(conn, MSG_CONFIG, config)
                if answer is None:
                    return
                for conn in conns:
                    read_frame(conn)
                    conn.sendall(answer)
            except (OSError, TransportError):
                return

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield [listener.getsockname()[:2] for listener in listeners]
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def resetting_listeners(listener_pair):
    """Endpoints whose stubs reset each connection after its HELLO."""
    with _stub_servers(listener_pair, reset=True) as endpoints:
        yield endpoints


@pytest.fixture
def closing_listeners(listener_pair):
    """Endpoints whose stubs close each connection after its HELLO with a
    FIN: the client reads end of file before any byte of a CONFIG, as it
    does from a server at its connection cap."""
    with _stub_servers(listener_pair) as endpoints:
        yield endpoints


@pytest.fixture
def malformed_answer_listeners(listener_pair):
    """Endpoints whose stubs answer each QUERY with a 5-byte ANSWER, four
    bytes wider than a cgks n=8 answer."""
    with _stub_servers(listener_pair, encode_frame(MSG_ANSWER, bytes(5))) as endpoints:
        yield endpoints


@pytest.fixture
def bad_magic_listeners(listener_pair):
    """Endpoints whose stubs answer each QUERY with a header whose magic is
    b"XXXX"."""
    with _stub_servers(listener_pair, b"XXXX" + bytes(5)) as endpoints:
        yield endpoints


@pytest.fixture
def over_cap_listeners(listener_pair):
    """Endpoints whose stubs answer each QUERY with an ANSWER header that
    declares 2^31 payload bytes, over read_frame's default cap."""
    header = MAGIC + bytes([MSG_ANSWER]) + struct.pack("<I", 2**31)
    with _stub_servers(listener_pair, header) as endpoints:
        yield endpoints
