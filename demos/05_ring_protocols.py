"""Matching-vector schemes over composite moduli: the modern cost frontier.

For squarefree m with r prime factors, the canonical set of m holds the
2^r - 1 nonzero residues that reduce to 0 or 1 modulo every factor.  A
matching family confines cross inner products to that set, and the server
count equals the number of monomials in a polynomial vanishing on the
corresponding powers of an order-m element:

* the product construction always gives 2^r monomials (4 servers at m=6);
* sparse search can do better - m = 511 = 7 * 73 admits 3 monomials;
* the group-ring scheme halves 2^r to 2^(r-1) by a derivative trick
  (2 servers at m=6), at the price of long group-ring answers and a
  reconstruction target omega != 1;
* the Hasse-derivative scheme gets 2 servers at m' = 6 with plain field
  answers by lifting the support through the CRT and interpolating with
  multiplicity 2.
"""

from pirlab.engine import comm_cost
from pirlab.mv import (
    canonical_set,
    search_matching_family,
    sparse_decoding_poly_search,
    trivial_decoding_poly,
)
from pirlab.protocols.ring import build_dvir_gopi, build_efremenko, build_gks
from pirlab.verify import exhaustive_correctness, exhaustive_privacy

print("canonical set of 6  =", canonical_set(6))
print("canonical set of 511 =", canonical_set(511))

poly = trivial_decoding_poly(6, 7)
print(f"\nproduct-construction polynomial (m=6, p=7, g={poly.g}): "
      f"{poly.k} monomials {poly.monomials}")

sparse = sparse_decoding_poly_search(511, 3067, k_target=3, symmetry_reduction=True)
print(f"sparse search at m=511, p=3067: exponents {sparse.exponents}, "
      f"coefficients {sparse.coefficients}")

family = search_matching_family(6, 3, canonical_set(6), 3)
print(f"\nmatching family in Z_6^3: n = {family.n}")

for scheme in (
    build_efremenko(6, 7, family, poly),
    build_dvir_gopi(6, family),
    build_gks(2, 3, family),
):
    cost = comm_cost(scheme)
    print(f"\n{scheme.name}: k = {scheme.k}, answers = {scheme.report['answers']}")
    print(f"  raw bits = {cost.raw_bits:.2f}, payload = {cost.payload_bytes} bytes")
    if scheme.name == "dvir-gopi":
        print(f"  nu = {scheme.report['nu']} (nonzero mod 2 and mod 3)")
    print(" ", exhaustive_correctness(scheme).to_lines()[0])
    print(" ", exhaustive_privacy(scheme).to_lines()[0])
