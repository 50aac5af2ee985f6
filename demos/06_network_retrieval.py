"""Networked retrieval: independent server daemons on loopback.

Each server holds a copy of the database and the public scheme parameters;
it never sees the retrieval index or the client's reconstruction state.
The client handshakes (HELLO -> CONFIG with a parameter digest), sends every
server its query before it reads any answer, so the servers work at the
same time, and reconstructs locally.  Payload bytes are
identical to the in-process run; only the 9-byte frame headers and the
handshake are extra.  Every retrieval draws its query randomness from the
operating system (seed=None): from a predictable seed, a single server could
recompute that randomness and read off i.
"""

from pirlab.protocols.cube import build_cgks
from pirlab.sim import (
    ServerNode,
    client_retrieve,
    param_digest,
    run_inprocess,
    serve,
)
from pirlab.verify import comm_audit

scheme = build_cgks(8)
x = (1, 0, 0, 1, 1, 0, 1, 0)
print(f"scheme {scheme.name}, n={scheme.n}, digest {param_digest(scheme)}")

servers = [
    serve(ServerNode(server_id=j + 1, scheme=scheme, database=x))
    for j in range(scheme.k)
]
endpoints = [s.endpoint for s in servers]
print("servers listening on", ", ".join(f"{h}:{p}" for h, p in endpoints))

try:
    for i in (2, 5):
        bit, transcript = client_retrieve(endpoints, scheme, i, seed=None)
        _, local = run_inprocess(scheme, x, i, seed=None)
        print(f"\nretrieve x_{i}: got {bit} (database holds {x[i]})")
        print(f"  payload {transcript.payload_bytes} bytes "
              f"(in-process run: {local.payload_bytes}), "
              f"framing overhead {transcript.framing_bytes} bytes")
        for entry in transcript.entries:
            print(f"  server {entry.server}: query {entry.query_payload_bytes} B, "
                  f"answer {entry.answer_payload_bytes} B, "
                  f"rtt {entry.rtt_seconds * 1000:.1f} ms")
        audit = comm_audit(scheme, transcript)
        print(" ", audit.to_lines()[0])
finally:
    for s in servers:
        s.stop()
print("\nservers stopped")
