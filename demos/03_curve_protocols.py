"""Curve-based schemes: hiding the index on a random polynomial curve.

Both schemes place the index's 0/1 exponent vector u_i at theta = 0 of a
random degree-t curve and query theta = 1 .. k.  The database polynomial
restricted to the curve has degree at most d*t, so its value at 0 - which
is exactly x_i - follows from the server evaluations:

* Lagrange: k values determine degree <= k - 1, so d = (k-1) // t.
* Hermite: servers also return the h partial derivatives, the client
  converts them to curve derivatives via the chain rule, and 2k constraints
  determine degree <= 2k - 1, so d = (2k-1) // t.  Better d means smaller
  h for the same n, at the price of longer answers.

Any t colluding servers see t points of a uniformly random curve, which is
a uniform tuple - that is the orthogonal-array property at strength t.
"""

from pirlab.engine import comm_cost
from pirlab.protocols.curve import build_lagrange, build_wy_hermite
from pirlab.verify import exhaustive_correctness, exhaustive_privacy

lagrange = build_lagrange(3, 1, 3, 5)
print(f"Lagrange t=1 k=3 p=5: d={lagrange.report['d']}, h={lagrange.report['h']}, "
      f"lambda = {lagrange.report['lambda']}")
print(" ", exhaustive_correctness(lagrange).to_lines()[0])
print(" ", exhaustive_privacy(lagrange).to_lines()[0])

hermite = build_wy_hermite(4, 1, 2, 7)
print(f"\nHermite t=1 k=2 p=7: d={hermite.report['d']}, h={hermite.report['h']}, "
      f"mu = {hermite.report['mu']}")
print(" ", exhaustive_correctness(hermite).to_lines()[0])
print(" ", exhaustive_privacy(hermite).to_lines()[0])

# The t-privacy knob: the same machinery at collusion threshold 2.
two_private = build_lagrange(2, 2, 3, 5)
print(f"\nLagrange t=2 k=3 p=5: d={two_private.report['d']} "
      f"(each extra colluder costs curve degree)")
print(" ", exhaustive_privacy(two_private).to_lines()[0])

print("\ncost comparison at matched (n, t):")
for name, scheme in (("lagrange", lagrange), ("hermite", hermite)):
    cost = comm_cost(scheme)
    print(f"  {name:8s} k={scheme.k}  raw bits = {cost.raw_bits:6.2f}  "
          f"payload = {cost.payload_bytes} bytes")
