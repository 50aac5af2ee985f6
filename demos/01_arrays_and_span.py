"""Orthogonal arrays and the span identity, on objects small enough to print.

An N x k array over a level set is an orthogonal array of strength t when
every t columns contain every t-tuple of levels equally often.  A retrieval
scheme is one orthogonal array per database index, plus per-index maps
alpha_tau from levels into a ring, such that fixed reconstruction
coefficients pair every row to (a nonzero multiple of) the index's unit
vector.  That single identity is what makes one bit recoverable while each
individual query stays index-independent.
"""

from pirlab.engine import answer, comm_cost, query_gen, reconstruct
from pirlab.protocols.toy import toy_instance
from pirlab.protocols.toy import TOY_ARRAYS
from pirlab.verify import oa_strength_check, span_check

# A classic strength-3 example: 8 rows, 4 binary columns.
rows = [
    (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0),
    (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1),
]
lam = oa_strength_check(rows, (0, 1), t=3)
print(f"8x4 binary array: strength 3 with index lambda = {lam}")
try:
    oa_strength_check(rows, (0, 1), t=4)
except Exception as exc:
    print(f"at strength 4 it fails: {exc}")

print()
scheme = toy_instance()
print(f"scheme {scheme.name!r}: n={scheme.n}, k={scheme.k}, t={scheme.t}, "
      f"levels F_3^2, answers F_3")
print("query array for index 0:")
for row in TOY_ARRAYS[0]:
    print("   ", row)

# The span identity, checked on every (index, row) pair.
for i in range(scheme.n):
    for ell in scheme.enumerate_randomness():
        span_check(scheme, i, ell)
print("span identity holds on all", scheme.n * scheme.num_rows, "(i, ell) pairs")

# One full retrieval round.
x = (1, 0)
i = 0
queries, aux = query_gen(scheme, i, seed=2024)
answers = [answer(scheme, x, q) for q in queries]
bit = reconstruct(scheme, aux, answers)
print(f"\ndatabase {x}, retrieving index {i}: queries {queries} -> "
      f"answers {answers} -> bit {bit}")
cost = comm_cost(scheme)
print(f"communication: {cost.raw_bits:.2f} raw bits, "
      f"{cost.payload_bytes} payload bytes")
