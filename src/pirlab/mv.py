"""Ingredient factory and shared parts of the matching-vector protocols.

Produces canonical sets, matching-vector families (by a deterministic
bitmask backtracking search that builds each vector's two masks once per
search and lists no vectors, with an independent invariant checker),
decoding polynomials (the product construction and a sparse search), and
the parity-constrained set pair of the Mersenne-prime indicator protocol.

It also holds what the five schemes share: ``dot_mod``, the inner product
<u, z> mod m; ``shift_scheme``, the one builder of all five, which owns
their query array; ``power_table`` and ``check_decoding``, which state g's
powers and the decoding identity once; and ``exponent_scheme``, the whole
of Efremenko's scheme over F_p and of Raghavendra's over F_(2^r).
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
    crt_combine,
    find_order_element,
    kernel_mod_prime,
    squarefree_factors,
    try_solve_mod_prime,
)
from .engine import ROW_CAP, Codec, PrimeField, Scheme, is_prime
from .errors import (
    DecodingPolyInvalid,
    Exhausted,
    NiceSetError,
    ParamError,
)

# The most nodes (orthogonal pairs) that search_matching_family visits.
SEARCH_BUDGET = 5_000_000


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


def _fit_masks(u: Sequence[int], m: int, target) -> tuple[int, int]:
    """(zero, fit) over the lexicographic ranks s of Z_m^h: bit s of
    ``zero`` is set iff <u, v_s> = 0 mod m, and bit s of ``fit`` iff
    <u, v_s> mod m lies in ``target``.

    One mask per reachable residue on the inner coordinates u[1:], then
    only the two unions on the outer coordinate u[0].  The values x of a
    coordinate c that share the offset c * x mod m are placed together by
    one multiplication with their repeat pattern."""
    masks, width = {0: 1}, 1
    for c in reversed(u[1:]):
        grown: dict[int, int] = {}
        repeat, blocks = _blocks(c, m, width)
        for offset, shift in blocks:
            for r, mask in masks.items():
                key = (r + offset) % m
                grown[key] = grown.get(key, 0) | mask * repeat << shift
        masks, width = grown, width * m
    zero = fit = 0
    repeat, blocks = _blocks(u[0], m, width)
    for offset, shift in blocks:
        if mask := masks.get(-offset % m):
            zero |= mask * repeat << shift
        if mask := sum(masks.get((t - offset) % m, 0) for t in target):
            fit |= mask * repeat << shift
    return zero, fit


def _blocks(c: int, m: int, width: int):
    """(repeat, [(c * x mod m, x * width) for x below the period of c]):
    x and x + m / gcd(c, m) share an offset, and ``repeat`` has a bit at
    each multiple of that period times ``width``."""
    period = m // math.gcd(c, m)
    repeat = sum(1 << j * period * width for j in range(m // period))
    return repeat, [(c * x % m, x * width) for x in range(period)]


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


def shift_scheme(
    name: str,
    ring,
    family: MatchingFamily,
    m: int,
    offsets: Sequence[int],
    answer_dim: int,
    alpha,
    recon,
    report: dict,
) -> Scheme:
    """A matching-vector scheme: for index i and a uniform shift ell in
    Z_m^h, server j of k = len(offsets) receives ell + d_j * v_i mod m.

    The one builder of the five: the level set Z_m^h is both the query
    codec and the randomness, t = 1 and n = family.n.  ``m`` is the query
    modulus, which need not be ``family.m``: gks queries over Z_m with a
    family in Z_(m*p)^h.
    """

    def row(i, ell):
        v = family.v[i]
        return tuple(
            tuple((w + d * vc) % m for w, vc in zip(ell, v)) for d in offsets
        )

    levels = Codec(m, family.h)
    return Scheme(
        name=name,
        n=family.n,
        k=len(offsets),
        t=1,
        ring=ring,
        answer_dim=answer_dim,
        level_codec=levels,
        randomness=levels,
        row=row,
        alpha=alpha,
        recon=recon,
        report=report,
    )


def power_table(ring, g, m: int) -> tuple:
    """(g^0, ..., g^(m-1)) in ``ring``; ParamError unless g has order m:
    g^m = 1 and the m powers are distinct."""
    table = tuple(itertools.accumulate(
        range(1, m), lambda acc, _: ring.mul(acc, g), initial=ring.one
    ))
    if ring.mul(table[-1], g) != ring.one or len(set(table)) != m:
        raise ParamError(f"{g} does not have order {m} in {ring!r}")
    return table


def check_decoding(ring, gpow: Sequence, exponents: Sequence[int], coeffs, roots):
    """The decoding identity: P = sum_j c_j * theta^(d_j) vanishes at g^delta
    for every delta in ``roots`` and P(1) = 1, where ``gpow`` is g's
    ``power_table``.  Raises DecodingPolyInvalid where it fails."""
    m = len(gpow)
    for delta in (0, *roots):
        value = ring.dot(coeffs, [gpow[delta * d % m] for d in exponents])
        if value != (ring.one if delta == 0 else ring.zero):
            raise DecodingPolyInvalid(f"P(g^{delta}) = {value} != {int(not delta)}")


def exponent_scheme(
    name: str,
    ring,
    g,
    family: MatchingFamily,
    targets: Sequence[int],
    offsets: Sequence[int],
    coeffs: Sequence,
    report: dict,
) -> Scheme:
    """The exponent scheme over a family in Z_m^h: server j gets the shift
    query at offset d_j and answers with g^<u_tau, z>.

    A decoding polynomial P = sum_j c_j * theta^(d_j) that vanishes on
    g^delta for delta in ``targets`` and is 1 at theta = 1 gives the client
    lambda_j = c_j * g^(-<u_i, ell>): the answers then combine to
    sum_tau x_tau * P(g^<u_tau, v_i>) = x_i.  It first checks all three
    facts: ``validate_family``, ``power_table`` and ``check_decoding``.
    Efremenko's scheme takes ring = F_p; Raghavendra's takes F_(2^r) with
    m = 2^r - 1 and P = 1 + theta + theta^gamma.
    """
    m = family.m
    validate_family(family, m, targets)
    gpow = power_table(ring, g, m)
    check_decoding(ring, gpow, offsets, coeffs, targets)

    def alpha(tau, z):
        return (gpow[dot_mod(family.u[tau], z, m)],)

    def recon(i, ell):
        c = gpow[-dot_mod(family.u[i], ell, m) % m]
        return tuple((ring.mul(c, rho),) for rho in coeffs), ring.one

    return shift_scheme(name, ring, family, m, offsets, 1, alpha, recon, report)


def search_matching_family(
    m: int,
    h: int,
    target_set: Sequence[int],
    n_target: int,
    side_constraint: bool = False,
) -> MatchingFamily:
    """Greedy backtracking search for a size-n_target matching family in
    Z_m^h over the orthogonal pairs (u, v) in lexicographic order.

    Each pair is one node of SEARCH_BUDGET.  Bitmasks over the ranks of Z_m^h
    skip each u that meets a chosen v outside the target set, its nodes
    counted in one step, and give each other u its fitting v in one AND.
    A vector is unranked when the search reaches it, and its two masks
    (``_fit_masks``) are built at most once per search; no list of the
    m^h vectors is made.  ``side_constraint`` also requires
    <u_i, 1> != 0, which the Mersenne indicator protocol needs for its
    shift argument.  Raises Exhausted when the candidates (or the budget)
    run out below the target.
    """
    if h < 1:
        raise ParamError("h must be >= 1")
    if m**h > ROW_CAP:
        raise ParamError(
            f"Z_{m}^{h} has {m**h} vectors, over the enumeration cap "
            f"{ROW_CAP}; choose a smaller h"
        )
    if n_target < 1:
        raise ParamError("n_target must be >= 1")
    target = set(x % m for x in target_set)
    if 0 in target:
        raise ParamError("target set must exclude 0")
    size = m**h
    drop_zero = n_target > 1  # a zero u or v meets a second member in 0
    before = [0]  # before[i]: the nodes whose u precedes the u of rank i
    pending = itertools.product(range(m), repeat=h)  # u not yet in ``before``
    fit_masks: dict[int, tuple[int, int]] = {}  # rank -> its _fit_masks
    chosen: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    visited = 0

    def unrank(rank: int) -> tuple[int, ...]:  # the vector of lexicographic rank
        digits = []
        for _ in range(h):
            rank, digit = divmod(rank, m)
            digits.append(digit)
        return tuple(reversed(digits))

    def masks(rank: int) -> tuple[int, int]:  # each vector's masks built once
        if rank not in fit_masks:
            fit_masks[rank] = _fit_masks(unrank(rank), m, target)
        return fit_masks[rank]

    def nodes(u) -> int:  # its m^(h-1) * gcd(u, m) orthogonal v, less zero
        if (drop_zero and not any(u)) or (side_constraint and sum(u) % m == 0):
            return 0
        return m ** (h - 1) * math.gcd(m, *u) - drop_zero

    def nodes_before(i: int) -> int:  # fills ``before`` only as far as asked
        while len(before) <= i:
            before.append(before[-1] + nodes(next(pending)))
        return before[i]

    def spend(pairs: int) -> bool:
        # Visits the next ``pairs`` nodes; fails on the first past the budget.
        nonlocal visited
        fits = not pairs or visited + pairs <= SEARCH_BUDGET
        visited = visited + pairs if fits else max(visited, SEARCH_BUDGET) + 1
        return fits

    def extend(start: int, owed: int, u_fit: int, v_fit: int) -> bool:
        # Bit i of u_fit (v_fit) is set iff the vector of rank i meets each
        # chosen v (u) in the target set; ``owed`` nodes before rank
        # ``start`` are unspent.
        todo = u_fit >> start << start
        while todo:
            ui = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            u = unrank(ui)
            if not nodes(u):
                continue
            if not spend(owed + nodes_before(ui) - nodes_before(start)):
                return False
            start = ui + 1
            zero, for_v = masks(ui)
            rest = zero >> drop_zero << drop_zero
            fits = rest & v_fit
            while fits:
                low = fits & -fits
                fits ^= low
                passed = rest & ((low << 1) - 1)
                rest ^= passed
                if not spend(passed.bit_count()):
                    return False
                vi = low.bit_length() - 1
                chosen.append((u, unrank(vi)))
                if len(chosen) == n_target:
                    return True
                _, for_u = masks(vi)
                if extend(start, rest.bit_count(), u_fit & for_u, v_fit & for_v):
                    return True
                chosen.pop()
            owed = rest.bit_count()
        spend(owed + nodes_before(size) - nodes_before(start))
        return False

    found = extend(0, 0, (1 << size) - 1, (1 << size) - 1)
    del extend  # it calls itself by name: a cycle that would hold the masks
    if not found:
        raise Exhausted(
            f"no size-{n_target} family found in Z_{m}^{h} "
            f"({visited} nodes visited)"
        )
    us, vs = zip(*chosen)
    return MatchingFamily(m, h, us, vs, tuple(sorted(target)))


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

    def validate(self) -> None:
        """Check g's order (ParamError) and the decoding identity over the
        canonical set (DecodingPolyInvalid)."""
        field = PrimeField(self.p)
        gpow = power_table(field, self.g, self.m)
        check_decoding(
            field, gpow, self.exponents, self.coefficients, canonical_set(self.m)
        )


def trivial_decoding_poly(m: int, p: int) -> DecodingPoly:
    """The product construction prod (theta - g^d) / prod (1 - g^d) over the
    canonical set, with at most 2^r monomials."""
    field = PrimeField(p)
    g = find_order_element(field, m)
    gpow = power_table(field, g, m)
    # Dense expansion of the monic product, lowest degree first.
    coeffs = [1]
    for delta in canonical_set(m):
        new = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] = (new[k + 1] + c) % p
            new[k] = (new[k] - c * gpow[delta]) % p
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
    set off the canonical powers, so no scaling dedup is applied.)  A
    space of more than ``ROW_CAP`` sets is a ParamError before any system.
    """
    r = len(squarefree_factors(m))
    if not 1 <= k_target < 2**r:
        raise ParamError(
            f"k_target must be in [1, 2^{r}) = [1, {2**r}); "
            f"the product construction already achieves 2^{r}"
        )
    space = math.comb(m - 1, k_target - 1)
    if space > ROW_CAP:
        raise ParamError(
            f"C({m - 1},{k_target - 1}) = {space} exponent sets, over the "
            f"enumeration cap ROW_CAP = {ROW_CAP}; choose a smaller sparse-k"
        )
    field = PrimeField(p)
    g = find_order_element(field, m)
    s_m = canonical_set(m)
    gpow = power_table(field, g, m)

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

    for rest in itertools.combinations(range(1, m), k_target - 1):
        poly = try_exponents((0,) + rest)
        if poly is not None:
            return poly
    raise Exhausted(
        f"no {k_target}-monomial decoding polynomial for m={m} over F_{p} "
        f"({space} exponent sets tried)"
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
