"""Communication cost across database sizes, with the closed-form
prediction and the k^2/(k-1) * log2(n) lower-bound baseline for context.

Sizes depend only on the public parameters, never on the database or the
index, so the grid varies n alone.
"""

from pirlab.protocols.cube import build_cgks
from pirlab.protocols.curve import build_lagrange
from pirlab.sim import bench


def show(title, rows):
    print(title)
    header = list(rows[0].keys())
    print("  " + "\t".join(header))
    for row in rows:
        print("  " + "\t".join(str(row[k]) for k in header))
    print()


show(
    "two-server cube (prediction is 12 * ceil(n^(1/3)) + 2):",
    bench(build_cgks, [8, 64, 512, 4096], trials=1),
)

show(
    "Lagrange t=1 k=3 p=5 (prediction is 3 * (h+1) * log2 5):",
    bench(lambda n: build_lagrange(n, 1, 3, 5), [3, 6, 10], trials=1),
)

print("the gap between measured bits and the lower-bound column is the")
print("open territory: better schemes would close it from above.")
