"""t-private schemes from polynomial curves over F_p.

Both constructions hide the retrieval index on a random degree-t curve
q(theta) = u_i + R * (theta, ..., theta^t) through the index's exponent
vector u_i, and query the curve at theta = 1 .. k.  Each server evaluates
the database polynomial F_x(z) = sum x_tau * z^(u_tau) at its point; the
restriction of F_x to the curve is a low-degree univariate polynomial
phi(theta) whose value at 0 is exactly x_i.

The plain variant recovers phi(0) by Lagrange interpolation from k values
(degree bound d = floor((k-1)/t)).  The derivative variant additionally
ships the h partial derivatives of F_x, which yield phi'(j) through the
chain rule, doubling the usable constraints (d = floor((2k-1)/t)).

R is ell read row by row as an h x t matrix.  The curve points and their
tangents R * (1, 2j, ..., t*j^(t-1)) weight and add its columns ell[b::t].

Index tau encodes the weight-d vector u_tau whose support is the tau-th
d-subset of [h] in colexicographic order.  Colex order is the combinatorial
number system: the support c_1 < ... < c_d has rank tau = sum_j C(c_j, j).
So the builders keep one table of C(c, j) per degree j, not the n supports,
and ``colex_unrank`` recovers a support with one bisection per degree.
Each table is the running sum of the one below it, by the hockey-stick
identity C(c, j) = sum_{m < c} C(m, j-1), starting from C(c, 0) = 1; so a
build makes no ``math.comb`` call per coordinate.  ``minimal_h`` finds h by
bisection, with O(log n) calls in all.

The ranks whose top element is b form the block [C(b, d), C(b+1, d)), and
the lower (d-1)-subsets of that block are again in colex order.  So

    F_x(z) = sum_b z_b * F^(d-1)(x[block b], z),

down to F^(1)(x, z) = sum of z_c over the set bits x_c.  The Lagrange
scheme answers with this kernel: it skips a block when z_b = 0, touches
each set bit once inside a C-level ``compress`` and reduces mod p at the
end.  The last block may be partial, since n < C(h, d) in general.
"""

from __future__ import annotations

import bisect
import itertools
import math

from ..engine import Codec, PrimeField, Scheme
from ..errors import ParamError


def binomial_tables(h: int, d: int) -> list[list[int]]:
    """Row j holds C(c, j) for c in range(h), for each degree j <= d.

    Row j is the prefix sums of row j - 1, shifted by one place."""
    tables = [[1] * h]
    for _ in range(d):
        sums = itertools.accumulate(tables[-1], initial=0)
        tables.append(list(itertools.islice(sums, h)))
    return tables


def colex_unrank(rank: int, d: int, tables: list[list[int]]) -> tuple[int, ...]:
    """The support of the rank-th d-subset of [h] in colexicographic order.

    This order fixes which index each exponent vector encodes, so it must
    never change.  ``rank`` must lie in [0, C(h, d))."""
    support = [0] * d
    top = len(tables[0])
    for j in range(d, 0, -1):
        top = bisect.bisect_right(tables[j], rank, 0, top) - 1
        support[j - 1] = top
        rank -= tables[j][top]
    return tuple(support)


def _index_tables(h: int | None, d: int, n: int) -> tuple[int, list[list[int]]]:
    """h (the least with C(h, d) >= n when None) and its binomial tables."""
    if h is None:
        h = minimal_h(d, n)
    if h < 1:
        raise ParamError("h must be >= 1")
    if math.comb(h, d) < n:
        raise ParamError(f"C({h},{d}) = {math.comb(h, d)} < n = {n}")
    return h, binomial_tables(h, d)


def _block_sum(x, z, d: int, tables: list[list[int]]) -> int:
    """sum_tau x_tau * z^(u_tau) over the ranks tau < len(x) of degree d,
    unreduced."""
    if d == 1:
        return sum(itertools.compress(z, x))
    starts = tables[d]
    last = len(starts) - 1
    n = len(x)
    total = 0
    for b, zb in enumerate(z):
        lo = starts[b]
        if lo >= n:
            break
        if zb:
            hi = starts[b + 1] if b < last else n
            total += zb * _block_sum(x[lo:hi], z, d - 1, tables)
    return total


def minimal_h(d: int, n: int) -> int:
    """The least h >= max(d, 1) with C(h, d) >= n, so that n indices fit
    in the weight-d vectors of length h.

    C(h, d) grows with h, and C(lo + n - 1, d) >= n for d >= 1, so a
    bisection over [lo, lo + n) finds h with O(log n) ``math.comb`` calls."""
    lo = max(d, 1)
    return lo + bisect.bisect_left(
        range(lo, lo + n), n, key=lambda h: math.comb(h, d)
    )


def _columns_times(ell, weights) -> list[int]:
    """R * weights, unreduced: sum_b weights[b] * ell[b::t] for every
    coordinate, one pass per column of R."""
    t = len(weights)
    total = [weights[0] * v for v in ell[::t]]
    for b, w in enumerate(weights[1:], 1):
        total = [s + w * v for s, v in zip(total, ell[b::t])]
    return total


def lagrange_weights(k: int, p: int) -> list[int]:
    """lambda_j = L_j(0) = prod_{m != j} m / (m - j) over F_p for the points
    j = 1..k: the weights that recover phi(0) from phi(1), ..., phi(k) for
    every phi of degree below k.  Needs prime p > k."""
    weights = []
    for j in range(1, k + 1):
        num = den = 1
        for m in range(1, k + 1):
            if m != j:
                num *= m
                den *= m - j
        weights.append(num * pow(den, -1, p) % p)
    return weights


def hermite_weights(k: int, p: int) -> list[int]:
    """(mu_value, mu_deriv) for each point j = 1..k in turn, over F_p: the
    weights that recover phi(0) from phi(j) and phi'(j) for every phi of
    degree below 2k.  Hermite interpolation on double nodes gives, with
    L_j(0) from ``lagrange_weights``,

        mu_value = L_j(0)^2 * (1 + 2j * sum_{m != j} 1 / (j - m)),
        mu_deriv = -j * L_j(0)^2.

    Needs prime p > 2k - 1."""
    weights = []
    for j, lam in enumerate(lagrange_weights(k, p), 1):
        square = lam * lam % p
        slope = sum(pow(j - m, -1, p) for m in range(1, k + 1) if m != j)
        weights += [square * (1 + 2 * j * slope) % p, -j * square % p]
    return weights


def _curve_row(d: int, tables: list[list[int]], t: int, k: int, p: int):
    """row(i, ell): q(theta) = u_i + R * (theta, ..., theta^t) at theta =
    1..k, where u_i is the 0/1 vector with ones at the support of index i."""

    def row(i, ell):
        support = colex_unrank(i, d, tables)
        points = []
        for j in range(1, k + 1):
            point = _columns_times(ell, [pow(j, b, p) for b in range(1, t + 1)])
            for c in support:
                point[c] += 1
            points.append(tuple([v % p for v in point]))
        return tuple(points)

    return row


def build_lagrange(n: int, t: int, k: int, p: int, h: int | None = None) -> Scheme:
    field = PrimeField(p)
    if p <= k:
        raise ParamError(f"need prime p > k, got p={p}, k={k}")
    if not 1 <= t < k:
        raise ParamError("need 1 <= t < k")
    d = (k - 1) // t
    h, tables = _index_tables(h, d, n)

    # Lagrange basis values at 0 for the points 1..k; independent of (i, ell).
    lam = lagrange_weights(k, p)
    lam_tuple = (tuple((val,) for val in lam), 1)

    def alpha(tau, z):
        acc = 1
        for c in colex_unrank(tau, d, tables):
            acc = acc * z[c] % p
        return (acc,)

    def recon(i, ell):
        return lam_tuple

    def answer_kernel(x, z):
        return (_block_sum(x, z, d, tables) % p,)

    levels = Codec(p, h)
    return Scheme(
        name="lagrange",
        n=n,
        k=k,
        t=t,
        ring=field,
        answer_dim=1,
        level_codec=levels,
        randomness=levels if t == 1 else Codec(p, h * t),
        row=_curve_row(d, tables, t, k, p),
        alpha=alpha,
        recon=recon,
        answer_kernel=answer_kernel,
        report={
            "p": p,
            "h": h,
            "d": d,
            "levels": f"F_{p}^{h}",
            "answers": f"F_{p}",
            "lambda": tuple(lam),
        },
    )


def build_wy_hermite(n: int, t: int, k: int, p: int, h: int | None = None) -> Scheme:
    field = PrimeField(p)
    if p <= 2 * k - 1:
        raise ParamError(f"need prime p > 2k-1, got p={p}, k={k}")
    if not 1 <= t < k:
        raise ParamError("need 1 <= t < k")
    d = (2 * k - 1) // t
    h, tables = _index_tables(h, d, n)
    mu = hermite_weights(k, p)

    def alpha(tau, z):
        support = colex_unrank(tau, d, tables)
        value = 1
        for c in support:
            value = value * z[c] % p
        out = [0] * (h + 1)
        out[0] = value
        for c in support:
            partial = 1
            for c2 in support:
                if c2 != c:
                    partial = partial * z[c2] % p
            out[c + 1] = partial
        return tuple(out)

    def recon(i, ell):
        blocks = []
        for j in range(1, k + 1):
            # Tangent of the curve at theta = j: R * (1, 2j, ..., t*j^(t-1)).
            tangent = _columns_times(ell, [(b + 1) * pow(j, b, p) for b in range(t)])
            m_der = mu[2 * j - 1]
            blocks.append((mu[2 * j - 2], *[m_der * v % p for v in tangent]))
        return tuple(blocks), 1

    levels = Codec(p, h)
    return Scheme(
        name="hermite",
        n=n,
        k=k,
        t=t,
        ring=field,
        answer_dim=h + 1,
        level_codec=levels,
        randomness=levels if t == 1 else Codec(p, h * t),
        row=_curve_row(d, tables, t, k, p),
        alpha=alpha,
        recon=recon,
        report={
            "p": p,
            "h": h,
            "d": d,
            "levels": f"F_{p}^{h}",
            "answers": f"F_{p}^{h + 1} (value plus gradient)",
            "mu": tuple(mu),
        },
    )
