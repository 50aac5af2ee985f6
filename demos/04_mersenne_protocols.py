"""Three-server schemes from a Mersenne prime p = 2^r - 1.

The ingredients, all computed and verified here for p = 7:

* the subgroup <2> = {1, 2, 4} of F_7^* (closed under doubling because
  2^3 = 1 mod 7);
* matched vector pairs in F_7^h with diagonal inner products 0 and cross
  inner products inside <2>;
* gamma with 1 + g + g^gamma = 0 in F_8, so the three-term polynomial
  1 + theta + theta^gamma vanishes on g^<2> by Frobenius;
* a parity-balanced set S0 whose intersections with all dilated translates
  sigma + delta*{0, 1, gamma} have even size.

Queries are the three shifts w + d*v_i for d in {0, 1, gamma}.  The
indicator variant answers with p membership bits and reconstructs by parity;
the exponent variant answers with the single field element g^<u_tau, z> and
reconstructs through the vanishing polynomial.
"""

from pirlab.algebra import ExtField, SparsePoly
from pirlab.engine import comm_cost
from pirlab.mv import search_matching_family, two_subgroup, yekhanin_nice_sets
from pirlab.protocols.mersenne import build_raghavendra, build_yekhanin
from pirlab.verify import exhaustive_correctness, exhaustive_privacy

print("subgroup <2> in F_7^*:", two_subgroup(7))

nice = yekhanin_nice_sets(7)
print(f"gamma = {nice.gamma}  (1 + g + g^{nice.gamma} = 0 in F_8)")
print(f"S1 = {nice.s1}, S0 = {nice.s0}")

f8 = ExtField(2, 3)
poly = SparsePoly(f8, ((0, f8.one), (1, f8.one), (nice.gamma, f8.one)))
values = {d: poly.evaluate(f8.pow(f8.gen, d)) for d in (0, 1, 2, 4)}
print("P(theta) = 1 + theta + theta^3 on powers of g:",
      {d: ("0" if v == f8.zero else "1" if v == f8.one else v) for d, v in values.items()})

family = search_matching_family(7, 3, two_subgroup(7), 3, side_constraint=True)
print(f"\nmatched vectors in F_7^3 (n = {family.n}):")
for u, v in zip(family.u, family.v):
    print(f"   u = {u}   v = {v}")

for build in (build_yekhanin, build_raghavendra):
    scheme = build(7, family, nice) if build is build_yekhanin else build(7, family)
    cost = comm_cost(scheme)
    print(f"\n{scheme.name}: k=3, answers = {scheme.report['answers']}, "
          f"raw bits = {cost.raw_bits:.2f}")
    print(" ", exhaustive_correctness(scheme).to_lines()[0])
    print(" ", exhaustive_privacy(scheme).to_lines()[0])
