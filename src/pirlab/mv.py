"""Ingredient factory and shared parts of the matching-vector protocols.

Produces canonical sets, matching-vector families (by a deterministic
bitmask backtracking search, with an independent invariant checker),
decoding polynomials (the product construction and a sparse search), and
the parity-constrained set pair of the Mersenne-prime indicator protocol.

It also holds what the five schemes share: ``dot_mod``, the inner product
<u, z> mod m; ``shift_row``, the query array; and ``exponent_scheme``, the
whole of Efremenko's scheme over F_p and of Raghavendra's over F_(2^r).
Raghavendra's builder lives with the Mersenne schemes, so this module is
where the two meet without one construction module loading the other.

The searches here replace constructions that only exist asymptotically in
the literature; at desk scale a verified search result is just as good and
considerably easier to audit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    BinaryField,
    SparsePoly,
    crt_combine,
    find_order_element,
    kernel_mod_prime,
    squarefree_factors,
    try_solve_mod_prime,
)
from .engine import Codec, PrimeField, Scheme, is_prime
from .errors import (
    DecodingPolyInvalid,
    Exhausted,
    NiceSetError,
    ParamError,
)

VECTOR_CAP = 10**6
DEFAULT_SEARCH_BUDGET = 5_000_000


def canonical_set(m: int) -> tuple[int, ...]:
    """The 2^r - 1 nonzero residues of Z_m whose residue mod every prime
    factor lies in {0, 1}, for squarefree m with r prime factors."""
    factors = squarefree_factors(m)
    out = []
    for pattern in itertools.product((0, 1), repeat=len(factors)):
        if any(pattern):
            out.append(crt_combine(pattern, factors))
    return tuple(sorted(out))


@dataclass(frozen=True)
class MatchingFamily:
    """Vector pairs with <u_i, v_i> = 0 and all cross inner products
    confined to the target set (in both directions)."""

    m: int
    h: int
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    target_set: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.u)


def dot_mod(a: Sequence[int], b: Sequence[int], m: int) -> int:
    """<a, b> mod m: the one inner product of the matching-vector schemes."""
    return sum(x * y for x, y in zip(a, b)) % m


def _residue_masks(u: Sequence[int], m: int) -> list[int]:
    """Bit s of ``masks[r]`` is set iff <u, v> = r mod m for the v of
    lexicographic rank s in Z_m^h: one shift-and-OR pass per coordinate."""
    masks, width = [1] + [0] * (m - 1), 1
    for c in reversed(u):
        grown = [0] * m
        for x in range(m):
            offset = c * x % m
            for r, mask in enumerate(masks):
                grown[(r + offset) % m] |= mask << (x * width)
        masks, width = grown, width * m
    return masks


def check_matching_family(family: MatchingFamily) -> list[str]:
    """Independent invariant checker; returns human-readable violations.

    Deliberately shares no code with the search: it just recomputes every
    ordered inner product from the definition.
    """
    violations = []
    target = set(family.target_set)
    for i in range(family.n):
        d = dot_mod(family.u[i], family.v[i], family.m)
        if d != 0:
            violations.append(f"<u_{i}, v_{i}> = {d} != 0")
    for i in range(family.n):
        for j in range(family.n):
            if i == j:
                continue
            d = dot_mod(family.u[i], family.v[j], family.m)
            if d not in target:
                violations.append(f"<u_{i}, v_{j}> = {d} not in target set")
    return violations


def validate_family(family: MatchingFamily, m: int, allowed_targets: Sequence[int]):
    """Reject a family that does not live in Z_m^h, whose target set leaves
    ``allowed_targets``, or that fails the invariant checker."""
    if family.m != m:
        raise ParamError(f"family lives in Z_{family.m}^h, expected Z_{m}^h")
    if not set(family.target_set) <= set(allowed_targets):
        raise ParamError(f"family target set must lie in {tuple(allowed_targets)}")
    problems = check_matching_family(family)
    if problems:
        raise ParamError("invalid matching family: " + "; ".join(problems))


def shift_row(family: MatchingFamily, offsets: Sequence[int], m: int):
    """The matching-vector query array: server j receives ell + d_j * v_i
    mod m for the uniform shift ell and the j-th offset d_j."""

    def row(i, ell):
        v = family.v[i]
        return tuple(
            tuple((w + d * vc) % m for w, vc in zip(ell, v)) for d in offsets
        )

    return row


def exponent_scheme(
    name: str,
    ring,
    gpow: Sequence,
    family: MatchingFamily,
    offsets: Sequence[int],
    coeffs: Sequence,
    report: dict,
) -> Scheme:
    """The exponent scheme over a family in Z_m^h: server j gets the shift
    query at offset d_j and answers with g^<u_tau, z>.

    ``gpow[e]`` is g^e in ``ring`` for an element g of order m.  A decoding
    polynomial sum_j c_j * theta^(d_j) that vanishes on the target set and
    is 1 at theta = 1 gives the client lambda_j = c_j * g^(-<u_i, ell>):
    the answers then combine to sum_tau x_tau * P(g^<u_tau, v_i>) = x_i.
    Efremenko's scheme takes ring = F_p; Raghavendra's takes F_(2^r) with
    m = 2^r - 1 and P = 1 + theta + theta^gamma.
    """
    m, h = family.m, family.h

    def alpha(tau, z):
        return (gpow[dot_mod(family.u[tau], z, m)],)

    def recon(i, ell):
        c = gpow[-dot_mod(family.u[i], ell, m) % m]
        return tuple((ring.mul(c, rho),) for rho in coeffs), ring.one

    levels = Codec(m, h)
    return Scheme(
        name=name,
        n=family.n,
        k=len(offsets),
        t=1,
        ring=ring,
        answer_dim=1,
        level_codec=levels,
        randomness=levels,
        row=shift_row(family, offsets, m),
        alpha=alpha,
        recon=recon,
        report=report,
    )


def search_matching_family(
    m: int,
    h: int,
    target_set: Sequence[int],
    n_target: int,
    side_constraint: bool = False,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> MatchingFamily:
    """Greedy backtracking search for a size-n_target matching family in
    Z_m^h over the orthogonal pairs (u, v) in lexicographic order.

    Each pair is one node of ``budget``.  Bitmasks over the ranks of Z_m^h
    skip each u that meets a chosen v outside the target set, its nodes
    counted in one step, and give each other u its fitting v in one AND.
    ``side_constraint`` also requires <u_i, 1> != 0, which the Mersenne
    indicator protocol needs for its shift argument.  Raises Exhausted
    when the candidates (or the budget) run out below the target.
    """
    if h < 1:
        raise ParamError("h must be >= 1")
    if m**h > VECTOR_CAP:
        raise ParamError(f"m^h = {m**h} exceeds the enumeration cap {VECTOR_CAP}")
    if n_target < 1:
        raise ParamError("n_target must be >= 1")
    target = set(x % m for x in target_set)
    if 0 in target:
        raise ParamError("target set must exclude 0")
    vectors = list(itertools.product(range(m), repeat=h))
    drop_zero = n_target > 1  # a zero u or v meets a second member in 0
    before = [0]  # before[i]: the nodes whose u precedes vectors[i]
    chosen: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    visited = 0

    def nodes(u) -> int:  # its m^(h-1) * gcd(u, m) orthogonal v, less zero
        if (drop_zero and not any(u)) or (side_constraint and sum(u) % m == 0):
            return 0
        return m ** (h - 1) * math.gcd(m, *u) - drop_zero

    def nodes_before(i: int) -> int:  # fills ``before`` only as far as asked
        for u in vectors[len(before) - 1 : i]:
            before.append(before[-1] + nodes(u))
        return before[i]

    def spend(pairs: int) -> bool:
        # Visits the next ``pairs`` nodes; fails on the first past the budget.
        nonlocal visited
        fits = not pairs or visited + pairs <= budget
        visited = visited + pairs if fits else max(visited, budget) + 1
        return fits

    def extend(start: int, owed: int, u_fit: int, v_fit: int) -> bool:
        # Bit i of u_fit (v_fit) is set iff vectors[i] meets each chosen v (u)
        # in the target set; ``owed`` nodes before vectors[start] are unspent.
        todo = u_fit >> start << start
        while todo:
            ui = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            if not nodes(vectors[ui]):
                continue
            if not spend(owed + nodes_before(ui) - nodes_before(start)):
                return False
            start = ui + 1
            masks = _residue_masks(vectors[ui], m)
            rest = masks[0] >> drop_zero << drop_zero
            fits = rest & v_fit
            for_v = sum(masks[r] for r in target)
            while fits:
                low = fits & -fits
                fits ^= low
                passed = rest & ((low << 1) - 1)
                rest ^= passed
                if not spend(passed.bit_count()):
                    return False
                v = vectors[low.bit_length() - 1]
                chosen.append((vectors[ui], v))
                if len(chosen) == n_target:
                    return True
                v_masks = _residue_masks(v, m)
                for_u = sum(v_masks[r] for r in target)
                if extend(start, rest.bit_count(), u_fit & for_u, v_fit & for_v):
                    return True
                chosen.pop()
            owed = rest.bit_count()
        spend(owed + nodes_before(len(vectors)) - nodes_before(start))
        return False

    if not extend(0, 0, (1 << m**h) - 1, (1 << m**h) - 1):
        raise Exhausted(
            f"no size-{n_target} family found in Z_{m}^{h} "
            f"({visited} nodes visited)"
        )
    us, vs = zip(*chosen)
    family = MatchingFamily(m, h, us, vs, tuple(sorted(target)))
    problems = check_matching_family(family)
    if problems:  # pragma: no cover - guards against search bugs
        raise Exhausted("search returned an invalid family: " + "; ".join(problems))
    return family


@dataclass(frozen=True)
class DecodingPoly:
    """A sparse polynomial over F_p vanishing on {g^d : d in the canonical
    set of m} and normalized to take value 1 at theta = 1."""

    m: int
    p: int
    g: int
    monomials: tuple[tuple[int, int], ...]  # (exponent in Z_m, coeff in F_p)

    @property
    def k(self) -> int:
        return len(self.monomials)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.monomials)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.monomials)

    def as_sparse_poly(self, field: PrimeField) -> SparsePoly:
        return SparsePoly(field, self.monomials)

    def validate(self) -> None:
        """Re-verify the defining identities with the generic evaluator."""
        field = PrimeField(self.p)
        poly = self.as_sparse_poly(field)
        for delta in canonical_set(self.m):
            value = poly.evaluate(pow(self.g, delta, self.p))
            if value != 0:
                raise DecodingPolyInvalid(
                    f"P(g^{delta}) = {value} != 0 (m={self.m}, p={self.p})"
                )
        if poly.evaluate(1) != 1:
            raise DecodingPolyInvalid(f"P(1) = {poly.evaluate(1)} != 1")


def trivial_decoding_poly(m: int, p: int) -> DecodingPoly:
    """The product construction prod (theta - g^d) / prod (1 - g^d) over the
    canonical set, with at most 2^r monomials."""
    field = PrimeField(p)
    g = find_order_element(field, m)
    s_m = canonical_set(m)
    # Dense expansion of the monic product, lowest degree first.
    coeffs = [1]
    for delta in s_m:
        root = pow(g, delta, p)
        new = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] = (new[k + 1] + c) % p
            new[k] = (new[k] - c * root) % p
        coeffs = new
    scale = field.inv(sum(coeffs) % p)
    monomials = tuple(
        (d, c * scale % p) for d, c in enumerate(coeffs) if c * scale % p
    )
    poly = DecodingPoly(m=m, p=p, g=g, monomials=monomials)
    poly.validate()
    return poly


def sparse_decoding_poly_search(
    m: int,
    p: int,
    k_target: int = 3,
    budget: int | None = None,
) -> DecodingPoly:
    """Search for a decoding polynomial with k_target < 2^r monomials.

    Exponent subsets of Z_m are enumerated lexicographically; for each, the
    root constraints plus the normalization P(1) = 1 form a small linear
    system whose first consistent solution wins.  Only subsets containing
    exponent 0 are tried, the lexicographic prefix of all of them:
    multiplying a solution by theta^(-d_min) shifts its exponents to include
    0 and only rescales the root rows of the same system, so this loses
    nothing while shrinking the space by a factor of about m / k.  (Scaling
    the exponent set by a unit of Z_m is NOT a symmetry: it moves the root
    set off the canonical powers, so no scaling dedup is applied.)
    """
    r = len(squarefree_factors(m))
    if not 1 <= k_target < 2**r:
        raise ParamError(
            f"k_target must be in [1, 2^{r}) = [1, {2**r}); "
            f"the product construction already achieves 2^{r}"
        )
    field = PrimeField(p)
    g = find_order_element(field, m)
    s_m = canonical_set(m)
    gpow = [pow(g, j, p) for j in range(m)]

    def try_exponents(exps: tuple[int, ...]) -> DecodingPoly | None:
        rows = [[gpow[delta * d % m] for d in exps] for delta in s_m]
        rows.append([1] * len(exps))
        rhs = [0] * len(s_m) + [1]
        coeffs = try_solve_mod_prime(rows, rhs, p)
        if coeffs is None or any(c == 0 for c in coeffs):
            return None
        monomials = tuple(sorted(zip(exps, coeffs)))
        poly = DecodingPoly(m=m, p=p, g=g, monomials=monomials)
        poly.validate()
        return poly

    candidates = (
        (0,) + rest for rest in itertools.combinations(range(1, m), k_target - 1)
    )
    tried = 0
    for exps in candidates:
        tried += 1
        if budget is not None and tried > budget:
            raise Exhausted(f"sparse search budget {budget} exhausted")
        poly = try_exponents(exps)
        if poly is not None:
            return poly
    raise Exhausted(
        f"no {k_target}-monomial decoding polynomial for m={m} over F_{p} "
        f"({tried} exponent sets tried)"
    )


@dataclass(frozen=True)
class NiceSets:
    """The (S0, S1) pair with the even-intersection property
    |S0 ^ (sigma + delta * S1)| = 0 mod 2 for all shifts sigma and all
    delta in the power-of-two subgroup."""

    s0: tuple[int, ...]
    s1: tuple[int, ...]
    gamma: int


def two_subgroup(p: int) -> tuple[int, ...]:
    """The subgroup <2> = {1, 2, 4, ...} of F_p^* for Mersenne p = 2^r - 1."""
    r = (p + 1).bit_length() - 1
    if 2**r - 1 != p or not is_prime(p):
        raise ParamError(f"{p} is not a Mersenne prime")
    return tuple(pow(2, j, p) for j in range(r))


def mersenne_field(p: int) -> tuple[int, BinaryField, int, int]:
    """(r, F_{2^r}, g, gamma) for a Mersenne prime p = 2^r - 1: the field's
    generator g = x and the gamma with 1 + g + g^gamma = 0."""
    r = len(two_subgroup(p))
    f2r = BinaryField(r)
    g = f2r.gen
    gamma = f2r.dlog(g, f2r.add(f2r.one, g))
    return r, f2r, g, gamma


def yekhanin_nice_sets(p: int) -> NiceSets:
    """Compute (S0, S1 = {0, 1, gamma}) for a Mersenne prime p = 2^r - 1.

    gamma is the one from ``mersenne_field``; S0 is the support of the
    first vector in a deterministic basis of the dual of the span of the
    incidence vectors of all sets sigma + delta * S1.
    """
    subgroup = two_subgroup(p)
    gamma = mersenne_field(p)[3]
    s1 = (0, 1, gamma)
    rows = []
    for sigma in range(p):
        for delta in subgroup:
            vec = [0] * p
            for s in s1:
                vec[(sigma + delta * s) % p] = 1
            rows.append(vec)
    basis = kernel_mod_prime(rows, 2)
    for vec in basis:
        support = tuple(i for i, b in enumerate(vec) if b)
        if support:
            return NiceSets(s0=support, s1=s1, gamma=gamma)
    raise NiceSetError(f"the dual space for p={p} contains no nonzero vector")


def k_r_table(r: int) -> int:
    """Server counts achieved by the known good Mersenne moduli."""
    if r < 2:
        raise ParamError("r must be >= 2")
    if r <= 103:
        if r % 2 == 0:
            return 3 ** (r // 2)
        return 8 * 3 ** ((r - 3) // 2)
    return 3**51 * 2 ** (r - 102)
