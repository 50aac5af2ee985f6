"""Matching-vector schemes over Z_m for squarefree composite m.

All three constructions share the query shape q_j = (shift) + d_j * v_i
over a matching family in Z_m^h; they differ in the answer structure and
in how the client recovers the constant term of the induced sparse
univariate polynomial:

* ``build_efremenko``: answers are single F_p elements g^<u_tau, z>; a
  sparse decoding polynomial vanishing on the canonical powers of g
  supplies the combination coefficients directly (``mv.exponent_scheme``
  over F_p).
* ``build_dvir_gopi``: answers live in the group ring Z_m[g]/(g^m - 1) and
  carry the multiplier vector (1, u_tau), so each server also answers a
  derivative and the server count halves to 2^(r-1).  The recovery pair
  (mu, nu) is in closed form: per prime q of m, the coefficients of the
  product of (Y - g^c) over the canonical c = 0 mod q, glued by CRT.
  This is the one scheme whose reconstruction target omega is not 1.
* ``build_gks``: queries are points of the order-m subgroup H_m of F_p^*
  and answers carry first-order Hasse derivatives; a multiplicity-2
  constant-term interpolation over the enlarged modulus m' = m * p does
  the decoding.
"""

from __future__ import annotations

import functools
import math

from ..algebra import (
    CyclicGroupRing,
    crt_combine,
    find_order_element,
    interpolation_vector,
    squarefree_factors,
)
from ..engine import Codec, PrimeField, Scheme, is_prime
from ..errors import NoMuNu, ParamError
from ..mv import (
    DecodingPoly,
    MatchingFamily,
    canonical_set,
    dot_mod,
    exponent_scheme,
    shift_row,
    validate_family,
)


def build_efremenko(m: int, p: int, family: MatchingFamily, poly: DecodingPoly) -> Scheme:
    validate_family(family, m, canonical_set(m))
    field = PrimeField(p)
    if poly.m != m or poly.p != p:
        raise ParamError("decoding polynomial built for different (m, p)")
    poly.validate()
    g = poly.g
    if pow(g, m, p) != 1 or any(
        pow(g, m // q, p) == 1 for q in set(squarefree_factors(m))
    ):
        raise ParamError(f"{g} does not have order {m} in F_{p}")
    if poly.k < 2:
        raise ParamError("need at least 2 monomials / servers")
    gpow = [pow(g, j, p) for j in range(m)]
    return exponent_scheme(
        "efremenko",
        field,
        gpow,
        family,
        poly.exponents,
        poly.coefficients,
        report={
            "m": m,
            "p": p,
            "g": g,
            "h": family.h,
            "canonical_set": canonical_set(m),
            "poly_exponents": poly.exponents,
            "poly_coefficients": poly.coefficients,
            "family_u": family.u,
            "family_v": family.v,
            "levels": f"Z_{m}^{family.h}",
            "answers": f"F_{p}",
        },
    )


def solve_group_ring_recovery(m: int) -> tuple[tuple, list[tuple]]:
    """The (nu, mu) with M mu = (nu, 0, ...) over R = Z_m[g]/(g^m - 1)
    and nu nonzero modulo every prime factor q of m.

    Row c of M, for c in {0} union the canonical set, holds g^(jc) and
    c * g^(jc): a polynomial's value and weighted derivative at g^c, seen
    through offset d_j = j for j < k = 2^(r-1).  For each q, P_q(Y) =
    prod (Y - g^c) = sum_j a_j Y^j over the k - 1 nonzero support c = 0
    mod q gives mu_2j = a_j, mu_(2j+1) = -a_j and nu = P_q(1) modulo q;
    the CRT idempotents of m glue the primes together.  Why, modulo q:
    every support c is 0 or 1 mod q.  A row with c = 1 reads
    sum_j g^(jc) (1 - c) a_j = 0, a row with c = 0 != c reads P_q(g^c) = 0,
    and row 0 reads P_q(1) = nu.  In characteristic q, P_q(1) =
    (prod (1 - g^(c/q)))^q, and no c/q in [1, m/q) is a multiple of m/q,
    so a primitive (m/q)-th root of unity is not a root: nu != 0 mod q.
    """
    ring = CyclicGroupRing(m)
    factors = squarefree_factors(m)
    support = (0,) + canonical_set(m)
    k = len(support) // 2
    values = [ring.zero] * k  # mu_0, mu_2, ...
    nu = ring.zero
    for q in factors:
        coeffs = [ring.one]  # P_q, lowest degree first
        for c in support[1:]:
            if c % q == 0:  # multiply by (Y - g^c)
                coeffs = [
                    ring.add(high, ring.scalar_mul(-1, ring.shift(low, c)))
                    for high, low in zip([ring.zero] + coeffs, coeffs + [ring.zero])
                ]
        idempotent = crt_combine([int(f == q) for f in factors], factors)
        values = [
            ring.add(acc, ring.scalar_mul(idempotent, a))
            for acc, a in zip(values, coeffs)
        ]
        p_at_one = functools.reduce(ring.add, coeffs)
        nu = ring.add(nu, ring.scalar_mul(idempotent, p_at_one))
    mu = [x for a in values for x in (a, ring.scalar_mul(-1, a))]

    # Safety net: re-check the defining identity over the group ring.
    matrix = [
        [ring.scalar_mul(s, ring.basis(j * c)) for j in range(k) for s in (1, c)]
        for c in support
    ]
    image = [ring.dot(row, mu) for row in matrix]
    if image != [nu] + [ring.zero] * (len(support) - 1):
        raise NoMuNu("(mu, nu) fails M mu = (nu, 0, ...)")
    for q in factors:
        if all(x % q == 0 for x in nu):
            raise NoMuNu(f"nu vanishes mod {q}")
    return nu, mu


def build_dvir_gopi(m: int, family: MatchingFamily) -> Scheme:
    validate_family(family, m, canonical_set(m))
    factors = squarefree_factors(m)
    r = len(factors)
    if r < 2:
        raise ParamError("need a composite modulus with >= 2 prime factors")
    k = 2 ** (r - 1)
    offsets = tuple(range(k))  # evaluation exponents d_j = j - 1
    nu, mu = solve_group_ring_recovery(m)
    ring = CyclicGroupRing(m)
    h, n = family.h, family.n

    def alpha(tau, z):
        u = family.u[tau]
        base = ring.basis(dot_mod(u, z, m))
        return (base,) + tuple(ring.scalar_mul(uc % m, base) for uc in u)

    def recon(i, ell):
        v = family.v[i]
        blocks = []
        for j in range(k):
            m_val = mu[2 * j]
            m_der = mu[2 * j + 1]
            blocks.append(
                (m_val,) + tuple(ring.scalar_mul(vc % m, m_der) for vc in v)
            )
        omega = ring.shift(nu, dot_mod(family.u[i], ell, m))
        return tuple(blocks), omega

    levels = Codec(m, h)
    return Scheme(
        name="dvir-gopi",
        n=n,
        k=k,
        t=1,
        ring=ring,
        answer_dim=h + 1,
        level_codec=levels,
        randomness=levels,
        row=shift_row(family, offsets, m),
        alpha=alpha,
        recon=recon,
        report={
            "m": m,
            "h": h,
            "canonical_set": canonical_set(m),
            "offsets": offsets,
            "family_u": family.u,
            "family_v": family.v,
            "nu": nu,
            "nu_mod_factors": {q: tuple(x % q for x in nu) for q in factors},
            "levels": f"Z_{m}^{h}",
            "answers": f"(Z_{m}[g]/(g^{m}-1))^{h + 1}",
            "omega_is_one": False,
        },
    )


def build_gks(m: int, p: int, family: MatchingFamily) -> Scheme:
    if not is_prime(p):
        raise ParamError(f"{p} is not prime")
    if math.gcd(p, m) != 1 or (p - 1) % m != 0:
        raise ParamError(f"need gcd(p, m) = 1 and m | p - 1; got m={m}, p={p}")
    m_prime = m * p
    validate_family(family, m_prime, canonical_set(m_prime))

    # The canonical set of m' = m * p must be the CRT image of
    # (canonical set of m, plus 0) x {0, 1}, minus the zero pair.
    support_m = (0,) + canonical_set(m)
    lifted = {
        crt_combine((a, b), (m, p))
        for a in support_m
        for b in (0, 1)
    }
    support_mp = (0,) + canonical_set(m_prime)
    if lifted != set(support_mp):
        raise ParamError("canonical set of m' is not the CRT lift; bad (m, p)")

    field = PrimeField(p)
    g = find_order_element(field, m)
    k = m  # one server per point of the order-m subgroup H_m
    points = tuple(pow(g, j, p) for j in range(k))

    # Plain constant-term recovery on the small support certifies the point
    # set; the multiplicity-2 vector on the lifted support is what the
    # client actually uses.
    interpolation_vector(p, points, support_m, multiplicity=1)
    mu = interpolation_vector(p, points, support_mp, multiplicity=2)

    h, n = family.h, family.n
    inv_points = [field.inv(b) for b in points]

    def alpha(tau, z):
        # At the point b = (g^z_1, ..., g^z_h), the monomial b^u is g^e for
        # e = <u, z> mod m, and its c-th first Hasse derivative is
        # C(u_c, 1) * b^(u - e_c) = u_c * g^(e - z_c).
        u = family.u[tau]
        e = dot_mod(u, z, m)
        return (points[e],) + tuple(
            uc % p * points[(e - zc) % m] % p for uc, zc in zip(u, z)
        )

    def recon(i, ell):
        u, v = family.u[i], family.v[i]
        scale = points[-dot_mod(u, ell, m) % m]
        blocks = []
        for j in range(k):
            m_val = mu[2 * j] * scale % p
            m_der = mu[2 * j + 1] * scale % p
            qvals = [points[(a + j * vc) % m] for a, vc in zip(ell, v)]
            blocks.append(
                (m_val,)
                + tuple(
                    m_der * (vc % p) % p * qc % p * inv_points[j] % p
                    for vc, qc in zip(v, qvals)
                )
            )
        return tuple(blocks), 1

    levels = Codec(m, h)
    return Scheme(
        name="gks",
        n=n,
        k=k,
        t=1,
        ring=field,
        answer_dim=h + 1,
        level_codec=levels,
        randomness=levels,
        row=shift_row(family, range(k), m),
        alpha=alpha,
        recon=recon,
        report={
            "m": m,
            "p": p,
            "m_prime": m_prime,
            "g": g,
            "h": h,
            "points": points,
            "support": tuple(support_mp),
            "mu": tuple(mu),
            "family_u": family.u,
            "family_v": family.v,
            "levels": f"H_{m}^{h} (subgroup points, sent as exponents)",
            "answers": f"F_{p}^{h + 1} (value plus first Hasse derivatives)",
            # The answer carries h+1 field elements; a scalar-answer
            # accounting k(h log m + log p) is shown for comparison.
            "scalar_answer_raw_bits": k * (h * math.log2(m) + math.log2(p)),
            "answer_width_note": (
                f"answers are {h + 1} field elements, not 1; "
                "measured widths count all of them"
            ),
        },
    )
