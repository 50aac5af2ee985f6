"""The two-server cube scheme: 12h + 2 bits for a side-h cube.

The database is a cube of side h; a query names a random box (three subsets
of [h] as bitmasks) and the second server gets the same box with the target
cell's coordinates toggled.  Answers carry the box parity plus every
single-coordinate perturbation parity, 3h + 1 bits, and the client XORs
eight selected bits - one box bit and three perturbation bits per server.
"""

from pirlab.engine import comm_cost
from pirlab.protocols.cube import build_cgks
from pirlab.sim import run_inprocess
from pirlab.verify import exhaustive_correctness, exhaustive_privacy

for n in (1, 8, 27, 64):
    scheme = build_cgks(n)
    cost = comm_cost(scheme)
    h = scheme.report["h"]
    print(f"n={n:3d}  h={h}  raw bits = 12h+2 = {cost.raw_bits:4.0f}  "
          f"payload = {cost.payload_bytes} bytes  rows per array = {scheme.num_rows}")

print()
scheme = build_cgks(8)
x = (1, 0, 1, 1, 0, 0, 1, 0)
for i in (0, 3, 7):
    bit, transcript = run_inprocess(scheme, x, i, seed=i)
    print(f"retrieve x_{i}: got {bit}, payload {transcript.payload_bytes} bytes")

print()
print("exhaustive checks at n=8 (256 databases x 8 indices x 64 rows):")
print(" ", exhaustive_correctness(scheme).to_lines()[0])
print(" ", exhaustive_privacy(scheme).to_lines()[0])
