"""Three-server schemes over a Mersenne prime p = 2^r - 1.

Queries are shifts w + d_j * v_i of a uniform vector w in F_p^h along the
matched vector v_i, at the three offsets d = (0, 1, gamma) where gamma
satisfies 1 + g + g^gamma = 0 in F_{2^r}.

The indicator variant answers with p parity bits - the memberships of
<u_tau, z + rho * 1> in the parity-balanced set S0 for every shift rho -
and the client selects one bit per server.  The exponent variant answers
with the single field element g^<u_tau, z>; there the three-term polynomial
1 + theta + theta^gamma vanishes on g^<2> and kills every off-index term.
That is Efremenko's scheme with F_(2^r) in place of F_p, so both are built
by ``mv.exponent_scheme``, which checks g's order and the polynomial.
"""

from __future__ import annotations

from ..engine import PrimeField, Scheme
from ..errors import ParamError
from ..mv import (
    MatchingFamily,
    NiceSets,
    dot_mod,
    exponent_scheme,
    mersenne_field,
    shift_scheme,
    two_subgroup,
    validate_family,
)


def build_yekhanin(p: int, family: MatchingFamily, nice: NiceSets) -> Scheme:
    validate_family(family, p, two_subgroup(p))
    for i, u in enumerate(family.u):
        if sum(u) % p == 0:
            raise ParamError(f"<u_{i}, 1> = 0; the shift argument needs != 0")
    r, f2r, g, gamma = mersenne_field(p)
    if nice.gamma != gamma:
        raise ParamError(f"nice sets built for gamma={nice.gamma}, field gives {gamma}")
    if not nice.s0:
        raise ParamError("S0 must be nonempty")
    h = family.h
    offsets = (0, 1, gamma)
    s0_set = frozenset(nice.s0)
    u_sums = [sum(u) % p for u in family.u]

    def alpha(tau, z):
        base = dot_mod(family.u[tau], z, p)
        step = u_sums[tau]
        return tuple(
            1 if (base + rho * step) % p in s0_set else 0 for rho in range(p)
        )

    def recon(i, ell):
        base = dot_mod(family.u[i], ell, p)
        step = u_sums[i]
        # <u_i, 1> != 0 makes rho -> base + rho*step a bijection of F_p,
        # so some rho lands in S0; take the smallest.
        rho = next(r0 for r0 in range(p) if (base + r0 * step) % p in s0_set)
        selector = tuple(1 if j == rho else 0 for j in range(p))
        return (selector,) * 3, 1

    return shift_scheme(
        "yekhanin", PrimeField(2), family, p, offsets, p, alpha, recon,
        report={
            "p": p,
            "r": r,
            "h": h,
            "gamma": gamma,
            "offsets": offsets,
            "s0": tuple(nice.s0),
            "s1": tuple(nice.s1),
            "family_u": family.u,
            "family_v": family.v,
            "levels": f"F_{p}^{h}",
            "answers": f"F_2^{p} membership vector",
        },
    )


def build_raghavendra(p: int, family: MatchingFamily) -> Scheme:
    r, f2r, g, gamma = mersenne_field(p)
    offsets = (0, 1, gamma)
    return exponent_scheme(
        "raghavendra",
        f2r,
        g,
        family,
        two_subgroup(p),
        offsets,
        (f2r.one,) * 3,
        report={
            "p": p,
            "r": r,
            "h": family.h,
            "gamma": gamma,
            "offsets": offsets,
            "family_u": family.u,
            "family_v": family.v,
            "levels": f"F_{p}^{family.h}",
            "answers": f"F_(2^{r})",
        },
    )
