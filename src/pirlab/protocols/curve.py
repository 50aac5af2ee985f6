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
build makes no ``math.comb`` call per coordinate.  ``minimal_h`` finds h
through ``engine.least``, with O(log n) calls in all.

The Lagrange scheme lays the n bits out as w columns of N = ceil(n / w)
records, as in the balancing of Chor, Goldreich, Kushilevitz and Sudan:
index i is record i mod N of column i // N.  Its query arrays are those
of the N records, and its answer map is widened to w coordinates, so a
retrieval sends h query values and receives w answer values per server.
At every curve length h, w = ceil(n / C(h, d)): the fewest columns whose
records fit the weight-d vectors of length h, one wherever C(h, d) >= n.
By default h is the least h >= d with d * ceil(n / C(h, d)) <= h (one
``engine.least`` call): near the minimum of h + n / C(h, d), where h is
about d * w.  Hermite keeps one column, and needs C(h, d) >= n: its
answer already carries h + 1 values.

The ranks whose top element is b form the block [C(b, d), C(b+1, d)), and
the lower (d-1)-subsets of that block are again in colex order.  So the
products z^(u_tau) of the first N records are, block by block, z_b times
the products of the first C(b, d-1) records of degree d - 1, down to the
products z_0, z_1, ... of degree 1.  The answer kernel builds them once per
query, one byte each and one ``bytes.translate`` per block while p <= 256
(a table per multiplier, built once per p), and splits them into bit
planes: plane k marks the records whose product has bit k set.
Coordinate c of the answer is then

    sum_k 2^k * popcount(column_c & plane_k)  mod p,

with each column packed into one int by ``prepare``.  The last column and
the last block may be partial.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Callable, NamedTuple

from ..engine import Codec, PrimeField, Scheme, least, pack_bits
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
    if h < d:
        raise ParamError(f"h must be at least d = {d}, got h = {h}")
    if math.comb(h, d) < n:
        raise ParamError(f"C({h},{d}) = {math.comb(h, d)} < n = {n}")
    return h, binomial_tables(h, d)


class _Residues(NamedTuple):
    """Sequences of residues mod p: ``seq`` makes one from ints, ``scale``
    multiplies one by a residue, ``join`` concatenates them and ``bit`` marks
    with one 0/1 byte each residue whose bit k is set."""

    seq: Callable
    scale: Callable
    join: Callable
    bit: Callable


# 54 primes fit in a byte, so a process keeps the tables of each p it uses.
@functools.lru_cache(maxsize=64)
def _residues(p: int) -> _Residues:
    """Bytes and translate tables when every residue fits in a byte, lists
    otherwise.  The tables depend only on p, so each p builds them once: one
    per multiplier m, mapping u to m*u mod p, and one per bit k, mapping u
    to bit k of u."""
    if p <= 256:
        flat = bytes([a * b % p for a in range(p) for b in range(p)])
        times = [flat[m * p : m * p + p].ljust(256, b"\0") for m in range(p)]
        # Bit k of the bytes 0..255 runs in 2^k zeros, 2^k ones, repeated.
        bits = [(bytes(1 << k) + b"\1" * (1 << k)) * (128 >> k) for k in range(8)]
        return _Residues(
            bytes,
            lambda values, m: values.translate(times[m]),
            b"".join,
            lambda values, k: values.translate(bits[k]),
        )
    return _Residues(
        list,
        lambda values, m: [m * v % p for v in values],
        lambda parts: list(itertools.chain.from_iterable(parts)),
        lambda values, k: bytes([v >> k & 1 for v in values]),
    )


def _product_plan(d: int, count: int, tables: list[list[int]]):
    """The blocks ``_products`` builds to reach the first ``count`` ranks of
    degree d: for each degree j = 2..d, the top element b and size
    C(b, j-1) of every block up to the one that holds the last rank needed,
    after the count of degree-1 products that the first of them read."""
    plan = []
    for j in range(d, 1, -1):
        top = bisect.bisect_right(tables[j], count - 1) - 1  # of the last rank
        plan.append(list(zip(range(j - 1, top + 1), tables[j - 1][j - 1 : top + 1])))
        count = tables[j - 1][top]
    return count, plan[::-1]


def _products(z, plan, residues: _Residues):
    """z^(u_tau) for the ranks tau of a ``_product_plan``, degree by degree:
    block b of degree j is z_b times the first C(b, j-1) products of degree
    j - 1.  The last block is built whole, so the products may run past
    the ranks asked for."""
    first, levels = plan
    scale = residues.scale
    values = residues.seq(z[:first])
    for blocks in levels:
        values = residues.join([scale(values[:size], z[b]) for b, size in blocks])
    return values


def balanced_h(d: int, n: int) -> int:
    """The least h >= d with d * ceil(n / C(h, d)) <= h: the curve length of
    the default Lagrange layout, with ceil(n / C(h, d)) columns.

    That bound holds exactly when C(h, d) * floor(h / d) >= n, which never
    decreases in h, so ``engine.least`` finds h."""
    if d < 1:
        raise ParamError(f"need d >= 1, got d={d}")
    return least(d, n, lambda h: math.comb(h, d) * (h // d))


def minimal_h(d: int, n: int) -> int:
    """The least h >= d with C(h, d) >= n, so that n indices fit in the
    weight-d vectors of length h.

    For d >= 1, C(h, d) grows with h without bound, so ``engine.least``
    finds h with O(log n) ``math.comb`` calls."""
    if d < 1:
        raise ParamError(f"need d >= 1, got d={d}")
    return least(d, n, lambda h: math.comb(h, d))


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


def curve_scheme(
    name: str, field: PrimeField, n: int, t: int, k: int, d: int, h: int,
    tables: list[list[int]], answer_dim: int, alpha, recon, report: dict,
    answer_kernel=None, prepare=None, records: int | None = None,
) -> Scheme:
    """A curve scheme: for index i and ell in F_p^(h*t), server j of k
    receives q(j) = u_i + R * (j, ..., j^t), where u_i is the 0/1 vector
    with ones at the support of record i mod ``records`` (n when None).

    The one builder of the two: F_p^h is the query codec and, when t = 1,
    the randomness; the report opens with p, h, d and the level set ahead
    of the builder's own keys.
    """
    p = field.p
    records = n if records is None else records

    def row(i, ell):
        support = colex_unrank(i % records, d, tables)
        points = []
        for j in range(1, k + 1):
            point = _columns_times(ell, [pow(j, b, p) for b in range(1, t + 1)])
            for c in support:
                point[c] += 1
            points.append(tuple([v % p for v in point]))
        return tuple(points)

    levels = Codec(p, h)
    return Scheme(
        name=name,
        n=n,
        k=k,
        t=t,
        ring=field,
        answer_dim=answer_dim,
        level_codec=levels,
        randomness=levels if t == 1 else Codec(p, h * t),
        row=row,
        alpha=alpha,
        recon=recon,
        answer_kernel=answer_kernel,
        prepare=prepare,
        report={"p": p, "h": h, "d": d, "levels": f"F_{p}^{h}", **report},
    )


def build_lagrange(n: int, t: int, k: int, p: int, h: int | None = None) -> Scheme:
    field = PrimeField(p)
    if p <= k:
        raise ParamError(f"need prime p > k, got p={p}, k={k}")
    if not 1 <= t < k:
        raise ParamError("need 1 <= t < k")
    d = (k - 1) // t
    # w columns of N records; (w - 1) * N < n <= w * N, so the bits fill w.
    h, tables = _index_tables(balanced_h(d, n) if h is None else h, d, 1)
    w = -(-n // math.comb(h, d))
    records = -(-n // w)

    # Lagrange basis values at 0 for the points 1..k; independent of (i, ell).
    lam = lagrange_weights(k, p)
    residues = _residues(p)
    plan = _product_plan(d, records, tables)
    planes = range((p - 1).bit_length())

    def at(column, value):
        """The w-vector holding value at coordinate column."""
        return (0,) * column + (value,) + (0,) * (w - 1 - column)

    def alpha(tau, z):
        column, record = divmod(tau, records)
        acc = 1
        for c in colex_unrank(record, d, tables):
            acc = acc * z[c] % p
        return at(column, acc)

    def recon(i, ell):
        return tuple(at(i // records, val) for val in lam), 1

    def prepare(bits):
        # The last slice is short when N does not divide n.
        return tuple(
            pack_bits(bits[s : s + records]) for s in range(0, n, records)
        )

    def answer_kernel(columns, z):
        # Products past the N records meet no bit of a column.
        values = _products(z, plan, residues)
        bit_planes = [(b, pack_bits(residues.bit(values, b))) for b in planes]
        return tuple(
            sum([(column & plane).bit_count() << b for b, plane in bit_planes]) % p
            for column in columns
        )

    answers = f"F_{p}" if w == 1 else f"F_{p}^{w}"
    report = {"answers": answers, "lambda": tuple(lam)}
    return curve_scheme(
        "lagrange", field, n, t, k, d, h, tables, w, alpha, recon, report,
        answer_kernel=answer_kernel, prepare=prepare, records=records,
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

    report = {"answers": f"F_{p}^{h + 1} (value plus gradient)", "mu": tuple(mu)}
    return curve_scheme(
        "hermite", field, n, t, k, d, h, tables, h + 1, alpha, recon, report
    )
